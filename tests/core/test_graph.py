"""Unit tests for the computation graph (repro.core.graph)."""

import pytest

from repro.core import GraphError, Operator, OpGraph


def diamond() -> OpGraph:
    return OpGraph.from_edges(
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0},
        [("a", "b", 0.5), ("a", "c", 0.5), ("b", "d", 0.5), ("c", "d", 0.5)],
    )


class TestOperator:
    def test_defaults(self):
        op = Operator("x")
        assert op.cost == 1.0
        assert op.occupancy == 1.0
        assert op.kind == "op"

    def test_negative_cost_rejected(self):
        with pytest.raises(GraphError):
            Operator("x", cost=-1.0)

    def test_occupancy_bounds(self):
        with pytest.raises(GraphError):
            Operator("x", occupancy=0.0)
        with pytest.raises(GraphError):
            Operator("x", occupancy=1.5)
        Operator("x", occupancy=1.0)  # boundary OK

    def test_negative_output_bytes_rejected(self):
        with pytest.raises(GraphError):
            Operator("x", output_bytes=-1)


class TestConstruction:
    def test_add_operator_by_name(self):
        g = OpGraph()
        op = g.add_operator("a", cost=2.0)
        assert op.cost == 2.0
        assert "a" in g

    def test_add_operator_object_with_kwargs_rejected(self):
        g = OpGraph()
        with pytest.raises(TypeError):
            g.add_operator(Operator("a"), cost=2.0)

    def test_duplicate_operator_rejected(self):
        g = OpGraph()
        g.add_operator("a")
        with pytest.raises(GraphError):
            g.add_operator("a")

    def test_edge_requires_known_vertices(self):
        g = OpGraph()
        g.add_operator("a")
        with pytest.raises(GraphError):
            g.add_edge("a", "b")

    def test_self_loop_rejected(self):
        g = OpGraph()
        g.add_operator("a")
        with pytest.raises(GraphError):
            g.add_edge("a", "a")

    def test_duplicate_edge_rejected(self):
        g = OpGraph()
        g.add_operator("a")
        g.add_operator("b")
        g.add_edge("a", "b")
        with pytest.raises(GraphError):
            g.add_edge("a", "b")

    def test_negative_transfer_rejected(self):
        g = OpGraph()
        g.add_operator("a")
        g.add_operator("b")
        with pytest.raises(GraphError):
            g.add_edge("a", "b", -0.1)

    def test_set_transfer(self):
        g = diamond()
        g.set_transfer("a", "b", 9.0)
        assert g.transfer("a", "b") == 9.0
        with pytest.raises(GraphError):
            g.set_transfer("b", "a", 1.0)

    def test_replace_operator(self):
        g = diamond()
        g.replace_operator(Operator("a", cost=42.0))
        assert g.cost("a") == 42.0
        with pytest.raises(GraphError):
            g.replace_operator(Operator("zz"))


class TestQueries:
    def test_len_iter_names(self):
        g = diamond()
        assert len(g) == 4
        assert sorted(g) == ["a", "b", "c", "d"]
        assert set(g.names) == {"a", "b", "c", "d"}

    def test_unknown_operator_raises(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.operator("zz")
        with pytest.raises(GraphError):
            g.successors("zz")
        with pytest.raises(GraphError):
            g.predecessors("zz")
        with pytest.raises(GraphError):
            g.transfer("a", "d")

    def test_degrees_and_neighbors(self):
        g = diamond()
        assert sorted(g.successors("a")) == ["b", "c"]
        assert sorted(g.predecessors("d")) == ["b", "c"]
        assert g.out_degree("a") == 2
        assert g.in_degree("d") == 2

    def test_edges_and_count(self):
        g = diamond()
        assert g.num_edges == 4
        assert ("a", "b", 0.5) in g.edges()
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_sources_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_total_cost(self):
        assert diamond().total_cost() == 10.0


class TestAlgorithms:
    def test_topological_order_valid(self):
        g = diamond()
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v, _ in g.edges():
            assert pos[u] < pos[v]

    def test_cycle_detected(self):
        g = OpGraph()
        for n in "abc":
            g.add_operator(n)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        assert not g.is_dag()
        with pytest.raises(GraphError):
            g.validate()

    def test_ancestors_descendants(self):
        g = diamond()
        assert g.ancestors("d") == {"a", "b", "c"}
        assert g.descendants("a") == {"b", "c", "d"}
        assert g.ancestors("a") == set()
        assert g.descendants("d") == set()

    def test_reachable(self):
        g = diamond()
        assert g.reachable("a", "d")
        assert g.reachable("a", "a")
        assert not g.reachable("d", "a")
        assert not g.reachable("b", "c")

    def test_independent(self):
        g = diamond()
        assert g.independent(["b", "c"])
        assert not g.independent(["a", "d"])  # path a -> d
        assert not g.independent(["a", "b"])  # direct edge
        assert not g.independent(["b", "b"])  # duplicates
        assert g.independent(["b"])

    def test_subgraph(self):
        g = diamond()
        sub = g.subgraph(["a", "b", "d"])
        assert len(sub) == 3
        assert sub.has_edge("a", "b")
        assert sub.has_edge("b", "d")
        assert not sub.has_edge("a", "d")

    def test_copy_independent(self):
        g = diamond()
        h = g.copy()
        h.add_operator("e")
        assert "e" not in g

    def test_from_edges_two_tuple(self):
        g = OpGraph.from_edges({"a": 1, "b": 2}, [("a", "b")])
        assert g.transfer("a", "b") == 0.0

    def test_from_edges_occupancy_map(self):
        g = OpGraph.from_edges({"a": 1, "b": 2}, [], occupancy={"a": 0.5})
        assert g.operator("a").occupancy == 0.5
        assert g.operator("b").occupancy == 1.0

    def test_empty_graph(self):
        g = OpGraph()
        assert len(g) == 0
        assert g.topological_order() == []
        assert g.sources() == []


def ring() -> OpGraph:
    """A 4-cycle at the same version as :func:`diamond` (4 ops, 4 edges)."""
    return OpGraph.from_edges(
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0},
        [("a", "b", 0.5), ("b", "c", 0.5), ("c", "d", 0.5), ("d", "a", 0.5)],
    )


MUTATIONS = {
    "add_operator": lambda g: g.add_operator("e"),
    "add_edge": lambda g: g.add_edge("b", "c"),
    "set_transfer": lambda g: g.set_transfer("a", "b", 0.25),
    "replace_operator": lambda g: g.replace_operator(Operator("a", cost=9.0)),
}


@pytest.fixture(params=["0", "1"], ids=["debug-lint-off", "debug-lint-on"])
def debug_lint(request, monkeypatch):
    monkeypatch.setenv("HIOS_DEBUG_LINT", request.param)
    return request.param == "1"


class TestDerivedMemo:
    def test_derived_once_per_version(self):
        g = diamond()
        versions = []

        def size(graph):
            versions.append(graph.version)
            return len(graph)

        assert g.derived(size) == 4
        assert g.derived(size) == 4
        assert versions == [g.version]
        g.add_operator("e")
        assert g.derived(size) == 5
        assert versions == [g.version - 1, g.version]

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_every_mutation_drops_the_memo(self, mutate):
        g = diamond()
        closure = g.descendant_masks()
        assert g.descendant_masks() is closure
        mutate(g)
        assert g.descendant_masks() is not closure

    def test_closure_follows_a_new_edge(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b")])
        assert g.independent(["a", "c"])
        g.add_edge("b", "c")
        assert not g.independent(["a", "c"])
        assert g.reachable("a", "c")

    def test_a_failed_derivation_stores_nothing(self):
        g = ring()
        for _ in range(2):
            with pytest.raises(GraphError, match="cycle"):
                g.descendant_masks()
        assert g.reachable("c", "b")  # the BFS fallback still answers


class TestRecordedValidity:
    def test_success_is_recorded(self, graph_lints, monkeypatch):
        monkeypatch.setenv("HIOS_DEBUG_LINT", "0")
        g = diamond()
        g.validate()
        g.validate()
        assert graph_lints == [g]

    def test_a_cycle_added_after_validation_raises(self, debug_lint):
        g = diamond()
        g.validate()
        g.add_edge("d", "a")
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_another_graph_at_the_same_version_is_not_taken_as_valid(self, debug_lint):
        good, bad = diamond(), ring()
        assert good.version == bad.version
        good.validate()
        with pytest.raises(GraphError, match="cycle"):
            bad.validate()

    def test_an_induced_subgraph_inherits_validity(self, graph_lints, monkeypatch):
        monkeypatch.setenv("HIOS_DEBUG_LINT", "0")
        g = diamond()
        g.validate()
        g.subgraph(["a", "b", "d"]).validate()
        g.copy().validate()
        assert graph_lints == [g]

    def test_an_unchecked_graph_passes_nothing_on(self, graph_lints, monkeypatch):
        monkeypatch.setenv("HIOS_DEBUG_LINT", "0")
        sub = ring().subgraph("abcd")
        with pytest.raises(GraphError, match="cycle"):
            sub.validate()
        assert graph_lints == [sub]

    def test_debug_lint_trusts_no_record(self, graph_lints, monkeypatch):
        monkeypatch.setenv("HIOS_DEBUG_LINT", "1")
        g = diamond()
        g.validate()
        g.validate()
        sub = g.subgraph(["a", "b"])
        sub.validate()
        assert graph_lints == [g, g, sub]

    def test_debug_lint_raises_on_a_wrong_record(self, monkeypatch):
        from repro.core.graph import _VALID

        g = ring()
        g._derived[_VALID] = True  # a record no valid graph could have made
        monkeypatch.setenv("HIOS_DEBUG_LINT", "0")
        g.validate()  # trusted
        monkeypatch.setenv("HIOS_DEBUG_LINT", "1")
        with pytest.raises(GraphError, match="recorded valid"):
            g.validate()

    def test_validate_runs_exactly_the_hereditary_rules(self):
        """Subgraphs inherit validity because every error rule a bare
        graph is linted with holds on each induced subgraph of a graph
        that passes it: acyclicity (G001) and finite weights (G007).  A
        new rule here must make that argument again (see
        ``OpGraph.subgraph``) before this set grows."""
        from repro.lint import LintContext, Linter

        ctx = LintContext(graph=OpGraph())
        applicable = {r.id for r in Linter().errors_only().rules if r.applicable(ctx)}
        assert applicable == {"G001", "G007"}
