"""Tests for Alg. 2 (intra-GPU inter-operator parallelization)."""

import pytest

from repro.core import (
    OpGraph,
    Schedule,
    ScheduleError,
    evaluate_latency,
    parallelize,
)
from repro.costmodel import CostProfile, MaxConcurrencyModel, SumConcurrencyModel, TableConcurrencyModel


def simple_profile(concurrency=None, max_streams=0):
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 2.0, "c": 2.0, "d": 1.0},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    return CostProfile(
        graph=g,
        num_gpus=1,
        concurrency=concurrency or MaxConcurrencyModel(),
        max_streams=max_streams,
    )


def sequential_schedule(profile, gpu=0):
    from repro.core import priority_order

    s = Schedule(profile.num_gpus)
    for v in priority_order(profile.graph):
        s.append_op(gpu, v)
    return s


class TestGrouping:
    def test_groups_independent_pair(self):
        prof = simple_profile()
        sched = sequential_schedule(prof)
        out, lat, stats = parallelize(prof, sched, window=2)
        assert lat == 4.0  # a, {b,c} at max=2, d
        assert stats.groups_formed == 1
        merged = [st for st in out.all_stages() if len(st) == 2]
        assert len(merged) == 1 and set(merged[0].ops) == {"b", "c"}

    def test_never_increases_latency(self):
        prof = simple_profile(concurrency=SumConcurrencyModel())
        sched = sequential_schedule(prof)
        before = evaluate_latency(prof, sched)
        _, lat, stats = parallelize(prof, sched, window=3)
        assert lat == before  # summing model: no grouping can help
        assert stats.groups_formed == 0

    def test_window_one_is_noop(self):
        prof = simple_profile()
        sched = sequential_schedule(prof)
        out, lat, stats = parallelize(prof, sched, window=1)
        assert stats.windows_tried == 0
        assert lat == evaluate_latency(prof, sched)

    def test_invalid_window(self):
        prof = simple_profile()
        with pytest.raises(ValueError):
            parallelize(prof, sequential_schedule(prof), window=0)

    def test_max_streams_limits_group_size(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [])
        prof = CostProfile(
            graph=g, num_gpus=1, concurrency=MaxConcurrencyModel(), max_streams=2
        )
        s = Schedule(1)
        for v in ("a", "b", "c"):
            s.append_op(0, v)
        out, _, _ = parallelize(prof, s, window=3)
        assert out.max_stage_width() <= 2

    def test_dependent_window_rejected(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b")])
        prof = CostProfile(graph=g, num_gpus=1, concurrency=MaxConcurrencyModel())
        s = Schedule(1)
        s.append_op(0, "a")
        s.append_op(0, "b")
        _, lat, stats = parallelize(prof, s, window=2)
        assert stats.rejected_dependent == 1
        assert stats.groups_formed == 0
        assert lat == 2.0

    def test_missing_operator_in_schedule(self):
        prof = simple_profile()
        s = Schedule(1)
        s.append_op(0, "a")
        with pytest.raises(ScheduleError):
            parallelize(prof, s, window=2)


class TestCycleRejection:
    def test_cross_gpu_cycle_rejected(self):
        """a and b are independent, yet merging GPU0's [b, a] into one
        stage creates a stage-graph cycle through GPU1's chain:
        {a,b} -> y1 -> y2 -> {a,b} (b feeds y1, y2 feeds a)."""
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "y1": 1.0, "y2": 1.0},
            [("b", "y1", 0.1), ("y2", "a", 0.1)],
        )
        assert g.independent(["a", "b"])
        table = TableConcurrencyModel()
        table.record(["a", "b"], 0.5)  # grouping looks very attractive
        prof = CostProfile(graph=g, num_gpus=2, concurrency=table)
        s = Schedule(2)
        s.append_op(0, "b")
        s.append_op(0, "a")
        s.append_op(1, "y1")
        s.append_op(1, "y2")
        s.validate(g)  # the ungrouped schedule is feasible
        out, lat, stats = parallelize(prof, s, window=2)
        assert stats.rejected_cyclic == 1
        assert stats.groups_formed == 0
        assert all(len(st) == 1 for st in out.all_stages())


class TestPaperExample:
    def test_fig5_walkthrough(self):
        from .worked_examples import fig5_initial_schedule, fig5_profile

        prof = fig5_profile()
        sched = fig5_initial_schedule()
        before = evaluate_latency(prof, sched)
        out, lat, stats = parallelize(prof, sched, window=2)
        assert before == 14.0
        assert lat == 10.0
        assert stats.groups_formed == 2
        groups = {frozenset(st.ops) for st in out.all_stages() if len(st) > 1}
        assert groups == {frozenset({"v2", "v4"}), frozenset({"v5", "v7"})}
