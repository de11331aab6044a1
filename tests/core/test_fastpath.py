"""Differential tests for :class:`repro.core.longest_path.LongestPathEngine`.

The engine's contract is *bit-identity* with the from-scratch dict DP
:func:`tests.oracles.longest_valid_path`: the same vertices, the same
float length, the same errors, for every graph and every unscheduled
set.  These tests compare the two exhaustively on a pinned
graph (every non-empty subset), randomly (hypothesis), across the
scheduler's own shrinking unscheduled sets, and through graph mutation
(the engine must rebuild when :attr:`OpGraph.version` moves).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphError, OpGraph, schedule_graph
from repro.core.longest_path import LongestPathEngine
from repro.models import random_dag_profile

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
