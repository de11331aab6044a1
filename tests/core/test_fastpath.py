"""Differential tests for :class:`repro.core.longest_path.LongestPathEngine`.

The engine's contract is *bit-identity* with the from-scratch dict DP
:func:`tests.oracles.longest_valid_path`: the same vertices, the same
float length, the same errors, for every graph and every unscheduled
set.  These tests compare the two exhaustively on a pinned
graph (every non-empty subset), randomly (hypothesis), across the
scheduler's own shrinking unscheduled sets, and through graph mutation
(the engine must rebuild when :attr:`OpGraph.version` moves).  The
engine carries its DP from one query to the next when the set only
shrank, so one engine is also driven through mixed query sequences,
hand-built tie and anchoring cases reach the carried update, and a
visit bound fails if Alg. 1's queries silently fall back to the full
DP.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphError, OpGraph, schedule_graph
from repro.core.longest_path import LongestPathEngine
from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler
from repro.models import random_dag_profile
from repro.obs import capture_decisions

from ..oracles import longest_valid_path, reference_components
from .test_properties import small_dags


def _rand_graph(seed: int, n: int) -> OpGraph:
    rng = random.Random(seed)
    g = OpGraph()
    for i in range(n):
        g.add_operator(
            f"v{i}", cost=rng.uniform(0.1, 4.0), occupancy=rng.uniform(0.1, 1.0)
        )
    for v in range(1, n):
        for u in range(v):
            if rng.random() < 0.3:
                g.add_edge(f"v{u}", f"v{v}", rng.uniform(0.0, 2.0))
    return g


def _assert_identical(engine: LongestPathEngine, graph: OpGraph, unscheduled):
    want = longest_valid_path(graph, unscheduled)
    got = engine.longest_valid_path(unscheduled)
    assert got.vertices == want.vertices
    assert got.length == want.length  # exact float, no tolerance


class TestExhaustive:
    def test_every_subset_of_a_pinned_graph(self):
        g = _rand_graph(seed=11, n=10)
        engine = LongestPathEngine(g)
        names = g.names
        for mask in range(1, 1 << len(names)):
            subset = {names[i] for i in range(len(names)) if mask >> i & 1}
            _assert_identical(engine, g, subset)

    def test_scheduler_shrinking_sets(self):
        """Replay Alg. 1's own query sequence: peel the returned path
        off the unscheduled set until it is empty, comparing every
        intermediate query."""
        g = _rand_graph(seed=23, n=40)
        engine = LongestPathEngine(g)
        unscheduled = set(g.names)
        while unscheduled:
            want = longest_valid_path(g, unscheduled)
            got = engine.longest_valid_path(unscheduled)
            assert got == want
            unscheduled -= set(want.vertices)


class TestRandomized:
    @settings(max_examples=60, deadline=None)
    @given(graph=small_dags(), data=st.data())
    def test_random_graph_random_subset(self, graph, data):
        names = sorted(graph.names)
        subset = data.draw(
            st.sets(st.sampled_from(names), min_size=1, max_size=len(names))
        )
        _assert_identical(LongestPathEngine(graph), graph, subset)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_and_sparse_graphs(self, seed):
        g = _rand_graph(seed=seed, n=25)
        engine = LongestPathEngine(g)
        rng = random.Random(seed + 100)
        for _ in range(30):
            k = rng.randint(1, len(g.names))
            subset = set(rng.sample(g.names, k))
            _assert_identical(engine, g, subset)


class TestEndToEnd:
    @pytest.mark.parametrize("alg", ["hios-lp", "inter-lp", "hios-lp-ls"])
    def test_fast_schedulers_match_reference(self, alg):
        profile = random_dag_profile(seed=9, num_ops=60, num_layers=6, num_gpus=3)
        fast = schedule_graph(profile, alg)
        with reference_components():
            ref = schedule_graph(profile, alg)
        assert fast.schedule == ref.schedule
        assert fast.latency == ref.latency


class TestContract:
    def test_empty_unscheduled_rejected(self):
        g = _rand_graph(seed=1, n=4)
        with pytest.raises(GraphError, match="no unscheduled vertices"):
            LongestPathEngine(g).longest_valid_path(set())

    def test_unknown_vertex_rejected(self):
        g = _rand_graph(seed=1, n=4)
        with pytest.raises(GraphError, match="not in graph"):
            LongestPathEngine(g).longest_valid_path({"zz"})

    def test_engine_rebuilds_after_graph_mutation(self):
        g = _rand_graph(seed=5, n=12)
        engine = LongestPathEngine(g)
        _assert_identical(engine, g, set(g.names))
        # mutate: the version bump must invalidate the cached CSR
        g.add_operator("extra", cost=9.0, occupancy=0.5)
        g.add_edge(g.names[0], "extra", 1.5)
        _assert_identical(engine, g, set(g.names))
        _assert_identical(engine, g, {"extra"})


@st.composite
def varied_dags(draw) -> OpGraph:
    """DAGs of 4-24 vertices (edges from lower to higher index) at a
    drawn edge density, with some zero costs and weights: sparse ones
    keep long runs of free vertices, whose tails the carried update
    must walk up the cone."""
    n = draw(st.integers(4, 24))
    density = draw(st.sampled_from([0.08, 0.15, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = OpGraph()
    for i in range(n):
        g.add_operator(f"v{i}", cost=rng.choice([0.0, 1.0, rng.uniform(0.1, 5.0)]))
    for v in range(1, n):
        for u in range(v):
            if rng.random() < density:
                g.add_edge(f"v{u}", f"v{v}", rng.choice([0.0, rng.uniform(0.0, 3.0)]))
    return g


class TestCarried:
    """One engine answers a whole query sequence; a query that only
    shrank the set updates the carried DP instead of rerunning it."""

    @settings(max_examples=80, deadline=None)
    @given(graph=st.one_of(small_dags(max_ops=14), varied_dags()), data=st.data())
    def test_one_engine_through_a_mixed_query_sequence(self, graph, data):
        """Alg. 1's shrinking queries, arbitrary shrinks, arbitrary
        subsets, sets that grow again and graph mutations, in any mix:
        every answer equals the oracle's, vertices and exact length."""
        engine = LongestPathEngine(graph)
        unscheduled = set(graph.names)
        last = engine.longest_valid_path(unscheduled)
        assert last == longest_valid_path(graph, unscheduled)
        for step in range(data.draw(st.integers(4, 14), label="steps")):
            kind = data.draw(
                st.sampled_from(["path", "path", "shrink", "subset", "grow", "mutate"]),
                label=f"kind{step}",
            )
            names = sorted(graph.names)
            if kind == "path":
                unscheduled -= set(last.vertices)
            elif kind == "shrink":
                drop = data.draw(st.sets(st.sampled_from(sorted(unscheduled))))
                unscheduled -= drop
            elif kind == "subset":
                unscheduled = data.draw(st.sets(st.sampled_from(names), min_size=1))
            elif kind == "grow":
                unscheduled |= data.draw(st.sets(st.sampled_from(names), min_size=1))
            else:
                edges = graph.edges()
                if edges and data.draw(st.booleans()):
                    u, v, _w = edges[data.draw(st.integers(0, len(edges) - 1))]
                    graph.set_transfer(u, v, data.draw(st.floats(0.0, 3.0)))
                else:
                    new = f"x{step}"
                    graph.add_operator(new, cost=data.draw(st.floats(0.0, 5.0)))
                    graph.add_edge(data.draw(st.sampled_from(names)), new, 1.0)
                    unscheduled.add(new)
            if not unscheduled:
                unscheduled = set(graph.names)
            last = engine.longest_valid_path(unscheduled)
            assert last == longest_valid_path(graph, unscheduled), kind

    @staticmethod
    def _carried(graph: OpGraph, first: set[str], then: set[str]):
        """Query ``first``, then ``then`` (a subset of it, so the second
        answer comes from the carried update); both must equal the
        oracle's."""
        engine = LongestPathEngine(graph)
        assert engine.longest_valid_path(first) == longest_valid_path(graph, first)
        visits = engine.counters.lvp_visits
        got = engine.longest_valid_path(then)
        assert got == longest_valid_path(graph, then)
        assert engine.counters.lvp_visits - visits < len(then)  # not a full DP
        return got

    def test_equal_totals_pick_the_smallest_start_name(self):
        """Two chains of one length, the one with the larger names added
        first: the carried heap must still break the tie by name."""
        g = OpGraph()
        for v in ("zz", "b1", "b2", "a1", "a2", "w"):
            g.add_operator(v, cost=9.0 if v == "zz" else 1.0)
        g.add_edge("b1", "b2", 0.5)
        g.add_edge("a1", "a2", 0.5)
        g.add_edge("zz", "w", 0.25)
        got = self._carried(g, set(g.names), set(g.names) - {"zz", "w"})
        assert got.vertices == ("a1", "a2") and got.length == 2.5

    def test_equal_continuations_pick_the_first_successor_by_name(self):
        """``p``'s two successors tie; removing ``z`` re-anchors ``p`` and
        the recomputed head must follow the smaller name."""
        g = OpGraph()
        for v, cost in (("z", 0.5), ("p", 1.0), ("s", 2.0), ("r", 2.0)):
            g.add_operator(v, cost=cost)
        g.add_edge("z", "p", 3.0)
        g.add_edge("p", "s", 1.0)
        g.add_edge("p", "r", 1.0)
        got = self._carried(g, {"z", "p", "s", "r"}, {"p", "s", "r"})
        assert got.vertices == ("p", "r") and got.length == 3.0 + 1.0 + 1.0 + 2.0

    def test_zero_costs_and_zero_weights(self):
        """All-zero totals: every start ties at 0.0 and the smallest name
        wins, query after query of Alg. 1's sequence."""
        g = OpGraph()
        for v in ("d", "c", "b", "a", "e"):
            g.add_operator(v, cost=0.0)
        g.add_edge("d", "c", 0.0)
        g.add_edge("c", "a", 0.0)
        g.add_edge("b", "a", 0.0)
        g.add_edge("a", "e", 0.0)
        engine = LongestPathEngine(g)
        unscheduled = set(g.names)
        while unscheduled:
            got = engine.longest_valid_path(unscheduled)
            assert got == longest_valid_path(g, unscheduled)
            assert got.length == 0.0 and got.vertices[0] == min(unscheduled)
            unscheduled -= set(got.vertices)

    def test_removal_anchors_the_middle_of_the_best_path(self):
        """Removing ``y`` anchors ``c``, an interior vertex of the best
        path ``a b c d``: the carried update must stop paths at ``c`` and
        recompute its ancestors' tails."""
        g = OpGraph()
        for v, cost in (("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("y", 0.1)):
            g.add_operator(v, cost=cost)
        for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
            g.add_edge(u, v, 0.5)
        g.add_edge("y", "c", 0.25)
        engine = LongestPathEngine(g)
        before = engine.longest_valid_path(set(g.names))
        assert before.vertices == ("a", "b", "c", "d")
        got = self._carried(g, set(g.names), {"a", "b", "c", "d"})
        assert got.vertices == ("a", "b", "c") and got.length == 4.0

    def test_alg1_visits_a_fraction_of_the_full_dp(self):
        """On nasnet@331, Alg. 1's queries together visit under 10 % of
        what a full DP per query visits (the sum of the unscheduled set
        sizes): a silent fallback to the full DP fails here."""
        profile = default_profiler(num_gpus=2).profile(MODEL_BUILDERS["nasnet"](331))
        with capture_decisions() as log:
            visits = schedule_graph(profile, "inter-lp").stats["lvp_visits"]
        left = len(profile.graph.names)
        full = 0
        for rec in log.events("lp-path"):
            full += left
            left -= len(rec["ops"])
        assert left == 0
        assert 0 < visits < 0.10 * full
