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
