"""Unit tests for the temporal list scheduler (Alg. 1 lines 10-13)."""

import pytest

from repro.core import (
    OpGraph,
    PrefixReplayer,
    build_singleton_schedule,
    evaluate_latency,
    priority_order,
)
from repro.costmodel import CostProfile
from repro.models.randomdag import random_layered_dag


def list_schedule_latency(graph, assignment, order, num_gpus, send_blocking=True):
    """Latency of list-scheduling ``order`` under ``assignment`` on the
    replayer Alg. 1 runs: a snapshot with nothing varying simulates the
    whole order."""
    replayer = PrefixReplayer(graph, num_gpus, send_blocking)
    replayer.snapshot(order, assignment, ())
    return replayer.replay(assignment)


class TestBasics:
    def test_single_gpu_is_sum(self):
        g = OpGraph.from_edges({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        order = priority_order(g)
        assignment = {v: 0 for v in g.names}
        assert list_schedule_latency(g, assignment, order, 1) == 6.0

    def test_cross_gpu_transfer_charged(self):
        g = OpGraph.from_edges({"a": 1, "b": 1}, [("a", "b", 2.0)])
        lat = list_schedule_latency(g, {"a": 0, "b": 1}, ["a", "b"], 2)
        assert lat == 4.0

    def test_partial_assignment_ignores_unassigned_preds(self):
        g = OpGraph.from_edges({"a": 5, "b": 1}, [("a", "b", 1.0)])
        # only b assigned: a's constraint invisible in this iteration
        assert list_schedule_latency(g, {"b": 0}, ["b"], 1) == 1.0

    def test_send_blocking_vs_not(self):
        g = OpGraph.from_edges(
            {"a": 1, "b": 1, "d": 1}, [("a", "b", 3.0)]
        )
        order = ["a", "b", "d"]
        assignment = {"a": 0, "b": 1, "d": 0}
        blocking = list_schedule_latency(g, assignment, order, 2, send_blocking=True)
        free = list_schedule_latency(g, assignment, order, 2, send_blocking=False)
        # blocking: a 0-1, send 1-4, d 4-5, b 4-5 -> 5
        assert blocking == 5.0
        # free: d 1-2, b 4-5 -> 5? no: b arrives at 4 -> finishes 5; but
        # no sender stall so latency max(2, 5) = 5.. both 5 here, so use
        # a tighter check on the sender GPU: add op e after d
        assert free == 5.0

    def test_sender_stall_propagates(self):
        g = OpGraph.from_edges(
            {"a": 1, "b": 0.1, "d": 1, "e": 1}, [("a", "b", 3.0)]
        )
        order = ["a", "b", "d", "e"]
        assignment = {"a": 0, "b": 1, "d": 0, "e": 0}
        blocking = list_schedule_latency(g, assignment, order, 2, send_blocking=True)
        free = list_schedule_latency(g, assignment, order, 2, send_blocking=False)
        # blocking: sends stall d and e -> GPU0 busy until 6
        assert blocking == 6.0
        # free: GPU0 finishes at 3; b finishes at 4.1
        assert free == pytest.approx(4.1)


class TestConsistencyWithEvaluator:
    """A full assignment list-scheduled in priority order must time out
    exactly like the equivalent singleton-stage schedule under the
    evaluator — HIOS-LP's inner objective equals the final measure."""

    @pytest.mark.parametrize("send_blocking", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs(self, seed, send_blocking):
        g = random_layered_dag(num_ops=40, num_layers=6, seed=seed)
        order = priority_order(g)
        # deterministic pseudo-assignment across 3 GPUs
        assignment = {v: i % 3 for i, v in enumerate(order)}
        lat = list_schedule_latency(g, assignment, order, 3, send_blocking=send_blocking)
        sched = build_singleton_schedule(assignment, order, 3)
        profile = CostProfile(graph=g, num_gpus=3, send_blocking=send_blocking)
        assert lat == pytest.approx(evaluate_latency(profile, sched, validate=True))


class TestBuildSingletonSchedule:
    def test_per_gpu_order_follows_priority(self):
        g = random_layered_dag(num_ops=20, num_layers=4, seed=3)
        order = priority_order(g)
        assignment = {v: i % 2 for i, v in enumerate(order)}
        sched = build_singleton_schedule(assignment, order, 2)
        for gpu in (0, 1):
            ops = sched.gpu_order(gpu)
            expected = [v for v in order if assignment[v] == gpu]
            assert ops == expected
        assert all(len(st) == 1 for st in sched.all_stages())
