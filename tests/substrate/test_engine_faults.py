"""Fault-aware engine behaviour: bit-identical fault-free runs,
time-varying GPU speeds, fail-stop failure events, the stall watchdog,
and the enriched misuse/deadlock diagnostics."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OpGraph, Schedule, Stage, priority_order
from repro.models.randomdag import random_layered_dag
from repro.substrate import (
    EngineConfig,
    EngineError,
    FaultError,
    FaultPlan,
    GpuFailure,
    GpuSlowdown,
    LinkDegradation,
    MultiGpuEngine,
    TransferLoss,
)


def engine(**kwargs):
    defaults = dict(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.0,
    )
    defaults.update(kwargs)
    return MultiGpuEngine(EngineConfig(**defaults))


def _singleton_schedule(graph, num_gpus, seed=0):
    order = priority_order(graph)
    sched = Schedule(num_gpus)
    for i, v in enumerate(order):
        sched.append_stage(Stage((i + seed) % num_gpus, (v,)))
    return sched


class TestEmptyPlanRegression:
    """An empty FaultPlan must leave traces bit-identical (the engine /
    evaluator equivalence suite's semantics are untouched)."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 500),
        num_gpus=st.integers(1, 4),
        overlap=st.booleans(),
    )
    def test_traces_bit_identical(self, seed, num_gpus, overlap):
        graph = random_layered_dag(num_ops=20, num_layers=4, seed=seed)
        schedule = _singleton_schedule(graph, num_gpus, seed)
        cfg = EngineConfig(launch_overhead_ms=0.002, overlap_launch=overlap)
        base = MultiGpuEngine(cfg).run(graph, schedule)
        faulted = MultiGpuEngine(replace(cfg, faults=FaultPlan())).run(graph, schedule)
        assert faulted == base  # exact: every timestamp, record and busy time


class TestGpuSlowdown:
    def test_mid_kernel_slowdown_piecewise(self):
        # 1 ms of work; half runs at full speed, the rest at half speed
        g = OpGraph.from_edges({"a": 1.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        plan = FaultPlan([GpuSlowdown(gpu=0, at=0.5, factor=0.5)])
        tr = engine(faults=plan).run(g, s)
        assert tr.latency == pytest.approx(1.5)
        assert tr.failure is None

    def test_slowdown_before_start_scales_everything(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b", 0.0)])
        s = Schedule(1)
        s.append_op(0, "a")
        s.append_op(0, "b")
        plan = FaultPlan([GpuSlowdown(gpu=0, at=0.0, factor=0.5)])
        tr = engine(faults=plan).run(g, s)
        assert tr.latency == pytest.approx(4.0)

    def test_compounding_slowdowns(self):
        g = OpGraph.from_edges({"a": 2.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        plan = FaultPlan(
            [
                GpuSlowdown(gpu=0, at=1.0, factor=0.5),
                GpuSlowdown(gpu=0, at=2.0, factor=0.5),
            ]
        )
        # 1 ms work by t=1, 0.5 more by t=2, remaining 0.5 at quarter speed
        tr = engine(faults=plan).run(g, s)
        assert tr.latency == pytest.approx(4.0)

    def test_slowdown_on_other_gpu_is_isolated(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        plan = FaultPlan([GpuSlowdown(gpu=1, at=0.0, factor=0.25)])
        tr = engine(faults=plan).run(g, s)
        assert tr.op_finish["a"] == pytest.approx(1.0)
        assert tr.op_finish["b"] == pytest.approx(4.0)


class TestGpuFailure:
    def test_failure_emits_partial_trace(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.0)])
        s = Schedule(1)
        s.append_op(0, "a")
        s.append_op(0, "b")
        plan = FaultPlan([GpuFailure(gpu=0, at=1.5)])
        tr = engine(faults=plan).run(g, s)
        assert tr.failure is not None
        assert not tr.completed
        assert tr.failure.gpu == 0
        assert tr.failure.time == pytest.approx(1.5)
        assert tr.failure.finished == frozenset({"a"})
        assert tr.failure.in_flight == frozenset({"b"})
        assert tr.latency == pytest.approx(1.5)
        assert "b" not in tr.op_finish

    def test_failure_after_completion_is_ignored(self):
        g = OpGraph.from_edges({"a": 1.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        plan = FaultPlan([GpuFailure(gpu=0, at=100.0)])
        tr = engine(faults=plan).run(g, s)
        assert tr.completed
        assert tr.latency == pytest.approx(1.0)

    def test_failure_freezes_other_gpus_too(self):
        """Fail-stop is a global cut: survivors' in-flight work is in
        the failure event, not silently completed."""
        g = OpGraph.from_edges({"a": 3.0, "b": 3.0}, [])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        plan = FaultPlan([GpuFailure(gpu=0, at=1.0)])
        tr = engine(faults=plan).run(g, s)
        assert tr.failure.in_flight == frozenset({"a", "b"})
        assert tr.failure.finished == frozenset()

    def test_out_of_range_failure_rejected(self):
        g = OpGraph.from_edges({"a": 1.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        plan = FaultPlan([GpuFailure(gpu=5, at=1.0)])
        with pytest.raises(FaultError, match="5"):
            engine(faults=plan).run(g, s)


class TestLinkDegradationEndToEnd:
    def test_degraded_link_delays_consumer(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b", 1.0)])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        plan = FaultPlan([LinkDegradation(src=0, dst=1, at=0.0, bw_factor=0.5)])
        tr = engine(faults=plan).run(g, s)
        # a: 0-1, transfer 2x slower: 1-3, b: 3-4
        assert tr.op_start["b"] == pytest.approx(3.0)
        assert tr.latency == pytest.approx(4.0)


class TestTransferLossEndToEnd:
    def test_lost_transfer_delays_and_is_deterministic(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b", 0.5)])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        loss = TransferLoss(tags=("a->b",), timeout_ms=0.5, backoff_ms=0.1)
        plan = FaultPlan([loss], seed=11)
        tr1 = engine(faults=plan).run(g, s)
        tr2 = engine(faults=plan).run(g, s)
        # retry: detect at 1.5, resend at 1.6, deliver 2.1, b: 2.1-3.1
        assert tr1.latency == pytest.approx(3.1)
        assert tr1 == tr2
        assert tr1.transfers[0].attempts == 2


class TestDiagnostics:
    def _deadlocked(self):
        """Cross-GPU wait cycle (only reachable with validate=False):
        b on GPU 0 waits for a; a on GPU 1 is queued behind c, which
        waits for b."""
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.1), ("b", "c", 0.1)]
        )
        s = Schedule(2)
        s.append_op(0, "b")
        s.append_op(1, "c")
        s.append_op(1, "a")
        return g, s

    def test_deadlock_error_names_blocked_hosts(self):
        """The legacy dynamic diagnostic (reached only with the HB
        sanitizer off — the sanitizer reports the same deadlock
        statically, with a witness cycle, before the event loop)."""
        g, s = self._deadlocked()
        with pytest.raises(EngineError) as exc:
            engine(sanitize=False).run(g, s, validate=False)
        msg = str(exc.value)
        assert "deadlock" in msg
        assert "GPU 0 host blocked on 'b'" in msg
        assert "GPU 1 host blocked on 'c'" in msg
        assert "awaiting remote data" in msg

    def test_watchdog_trips_on_stall(self):
        g, s = self._deadlocked()
        # a far-future fault event keeps the event queue non-empty, so
        # without the watchdog the engine would jump 1000 ms ahead
        plan = FaultPlan([GpuSlowdown(gpu=0, at=1000.0, factor=0.5)])
        with pytest.raises(EngineError) as exc:
            engine(faults=plan, watchdog_horizon_ms=10.0, sanitize=False).run(
                g, s, validate=False
            )
        msg = str(exc.value)
        assert "watchdog" in msg
        assert "GPU 0 host blocked on 'b'" in msg

    def test_watchdog_does_not_trip_on_healthy_long_run(self):
        g = OpGraph.from_edges({"a": 50.0, "b": 50.0}, [("a", "b", 0.1)])
        s = Schedule(1)
        s.append_op(0, "a")
        s.append_op(0, "b")
        tr = engine(watchdog_horizon_ms=1.0).run(g, s)
        assert tr.latency == pytest.approx(100.0)

    def test_short_gpu_speeds_rejected_with_clear_error(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [])
        s = Schedule(3)
        s.append_op(0, "a")
        s.append_op(2, "b")
        with pytest.raises(EngineError, match="gpu_speeds has 2 entries"):
            engine(gpu_speeds=(1.0, 1.0)).run(g, s)

    def test_longer_gpu_speeds_still_accepted(self):
        g = OpGraph.from_edges({"a": 1.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        tr = engine(gpu_speeds=(2.0, 1.0, 1.0)).run(g, s)
        assert tr.latency == pytest.approx(0.5)

    def test_negative_watchdog_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(watchdog_horizon_ms=-1.0)
