"""Trace JSON contract: round-trips, malformed-document rejection,
utilization clamping.

The parsing rules here are load-bearing: ``assert``-based validation
vanishes under ``python -O``, and ``frozenset("op1")`` silently splits
a string into characters — both must be hard :class:`EngineError`\\ s.
"""

import json

import pytest

from repro.core import OpGraph, Schedule
from repro.substrate import EngineConfig, MultiGpuEngine
from repro.substrate.engine import EngineError, ExecutionTrace
from repro.substrate.faults import FaultPlan, GpuFailure


def run_pair(faults=None):
    g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
    s = Schedule(2)
    s.append_op(0, "a")
    s.append_op(1, "b")
    cfg = EngineConfig(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.0,
        faults=faults,
    )
    return MultiGpuEngine(cfg).run(g, s)


class TestRoundTrip:
    def test_completed_trace(self):
        trace = run_pair()
        back = ExecutionTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert back.latency == trace.latency
        assert back.op_start == trace.op_start
        assert back.op_finish == trace.op_finish
        assert back.gpu_busy == trace.gpu_busy
        assert back.transfers == trace.transfers
        assert back.failure is None

    def test_failure_trace(self):
        trace = run_pair(faults=FaultPlan([GpuFailure(gpu=1, at=2.0)]))
        assert trace.failure is not None
        back = ExecutionTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert back.failure is not None
        assert back.failure.gpu == trace.failure.gpu
        assert back.failure.time == trace.failure.time
        assert back.failure.finished == trace.failure.finished
        assert back.failure.in_flight == trace.failure.in_flight
        # in-flight ops keep a start but no finish through the round-trip
        assert "b" in back.op_start and "b" not in back.op_finish


class TestMalformedDocuments:
    def base(self):
        return run_pair(faults=FaultPlan([GpuFailure(gpu=1, at=2.0)])).to_dict()

    def test_wrong_format(self):
        doc = self.base()
        doc["format"] = "repro.cache/v1"
        with pytest.raises(EngineError, match="unsupported trace format"):
            ExecutionTrace.from_dict(doc)

    @pytest.mark.parametrize("bad", ["gpu1-died", ["gpu", 1], 3.5])
    def test_failure_must_be_object(self, bad):
        # previously an `assert isinstance(...)` — gone under python -O
        doc = self.base()
        doc["failure"] = bad
        with pytest.raises(EngineError, match="'failure' must be an object"):
            ExecutionTrace.from_dict(doc)

    def test_finished_as_string_is_not_character_split(self):
        # frozenset("op1") == {"o", "p", "1"}; must reject, not split
        doc = self.base()
        doc["failure"]["finished"] = "op1"
        with pytest.raises(EngineError, match="'finished' must be an array"):
            ExecutionTrace.from_dict(doc)

    def test_in_flight_as_scalar(self):
        doc = self.base()
        doc["failure"]["in_flight"] = 7
        with pytest.raises(EngineError, match="'in_flight' must be an array"):
            ExecutionTrace.from_dict(doc)

    def test_non_string_op_names(self):
        doc = self.base()
        doc["failure"]["finished"] = ["a", 2]
        with pytest.raises(EngineError, match="only operator name strings"):
            ExecutionTrace.from_dict(doc)

    def test_missing_failure_key(self):
        doc = self.base()
        del doc["failure"]["time"]
        with pytest.raises(EngineError, match="malformed trace document"):
            ExecutionTrace.from_dict(doc)

    def test_missing_latency(self):
        doc = self.base()
        del doc["latency"]
        with pytest.raises(EngineError, match="malformed trace document"):
            ExecutionTrace.from_dict(doc)

    def test_engine_error_is_not_swallowed_by_wrappers(self):
        # EngineError subclasses RuntimeError, so the generic
        # (KeyError, TypeError, ValueError) clauses must not catch and
        # re-wrap (or worse, mask) the targeted messages above
        doc = self.base()
        doc["failure"]["finished"] = "op1"
        with pytest.raises(EngineError) as exc_info:
            ExecutionTrace.from_dict(doc)
        assert "must be an array" in str(exc_info.value)


class TestUtilizationClamp:
    def test_completed_trace_in_unit_range(self):
        trace = run_pair()
        for g in (0, 1):
            assert 0.0 <= trace.utilization(g) <= 1.0

    def test_partial_failure_trace_is_clamped(self):
        # GPU 1's in-flight kernel accrues busy time past the cut
        trace = run_pair(faults=FaultPlan([GpuFailure(gpu=1, at=2.0)]))
        for g in (0, 1):
            assert trace.utilization(g) <= 1.0

    def test_raw_ratio_above_one_is_clamped(self):
        trace = ExecutionTrace(
            latency=1.0,
            op_launch={},
            op_start={},
            op_finish={},
            transfers=[],
            gpu_busy={0: 1.75},
        )
        assert trace.utilization(0) == 1.0

    def test_zero_latency_is_zero_not_nan(self):
        trace = ExecutionTrace(
            latency=0.0,
            op_launch={},
            op_start={},
            op_finish={},
            transfers=[],
            gpu_busy={0: 0.5},
        )
        assert trace.utilization(0) == 0.0

    def test_unknown_gpu_is_zero(self):
        assert run_pair().utilization(99) == 0.0
