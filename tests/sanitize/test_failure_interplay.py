"""Sanitizer x fault tolerance: partial traces, cascading repair
splices and deliberately corrupted histories."""

from dataclasses import replace

import pytest

from repro.core import OpGraph, Schedule, Stage, priority_order
from repro.core.api import make_profile
from repro.core.repair import run_with_repair, splice_traces
from repro.models.randomdag import random_layered_dag
from repro.sanitize import (
    analyze,
    check_engine_trace,
    dependency_violations,
    trace_findings,
)
from repro.substrate import EngineConfig, FaultPlan, MultiGpuEngine

from .conftest import make_engine


def _round_robin(graph, num_gpus=2):
    schedule = Schedule(num_gpus)
    for i, op in enumerate(priority_order(graph)):
        schedule.append_stage(Stage(i % num_gpus, (op,)))
    return schedule


class TestPartialTraces:
    def test_failure_mid_transfer_linearizes(self, chain, split_schedule):
        # GPU 1 dies at t=1.2 while the a->b transfer (1.0..1.5) is in
        # flight: 'b' never starts, the trace is cut mid-message
        plan = FaultPlan.from_strings(["fail:1@1.2"])
        trace = make_engine(faults=plan, sanitize=True).run(
            chain, split_schedule
        )
        assert trace.failure is not None
        assert "b" not in trace.op_start
        assert check_engine_trace(chain, split_schedule, trace) == []
        assert trace_findings(chain, split_schedule, trace) == []

    def test_partial_trace_passes_analyze(self, chain, split_schedule):
        plan = FaultPlan.from_strings(["fail:1@1.2"])
        trace = make_engine(faults=plan, sanitize=True).run(
            chain, split_schedule
        )
        report = analyze(chain, split_schedule, traces=[trace])
        assert report.ok


class TestRepairSplices:
    def test_cascading_repair_splice_linearizes(self):
        graph = random_layered_dag(num_ops=16, num_layers=4, seed=5)
        schedule = _round_robin(graph, num_gpus=3)
        profile = make_profile(graph, num_gpus=3)
        cfg = EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.0,
            faults=FaultPlan.from_strings(["fail:1@2.0"]),
        )
        trace, repairs = run_with_repair(profile, schedule, cfg)
        assert repairs  # the failure really struck
        assert trace.failure is not None  # splices keep the marker
        assert not trace.unfinished_ops(graph.names)
        # the tail re-ran under a *repaired* schedule, so the structural
        # layer and the placement-dependent transfer slack no longer
        # apply — but dataflow order is placement-independent and must
        # survive the splice intact
        assert list(dependency_violations(graph, trace)) == []

    def test_spliced_trace_carries_merged_finished_set(self, chain, split_schedule):
        plan = FaultPlan.from_strings(["fail:1@1.2"])
        head = make_engine(faults=plan).run(chain, split_schedule)
        tail_schedule = Schedule(1, [Stage(0, ("b",))])
        tail = make_engine().run(
            OpGraph.from_edges({"b": 1.0}, []), tail_schedule
        )
        combined = splice_traces(head, tail)
        assert combined.failure is not None
        assert "a" in combined.failure.finished
        assert (
            check_engine_trace(chain, split_schedule, combined, structural=False)
            == []
        )


class TestCorruptedHistories:
    def test_reordered_partial_trace_still_fails_requirements(
        self, chain, split_schedule
    ):
        """The structural layer is off for partial traces, but the
        requirement layer still catches a consumer outrunning its
        producer — with the witness edge named."""
        plan = FaultPlan.from_strings(["fail:1@1.2"])
        trace = make_engine(faults=plan, sanitize=False).run(
            chain, split_schedule
        )
        assert trace.failure is not None  # genuinely partial
        # fabricate a start for the op the failure cut off, *before*
        # its producer finished
        corrupt = replace(trace, op_start={**trace.op_start, "b": 0.2})
        violations = check_engine_trace(chain, split_schedule, corrupt)
        kinds = {vio.kind for vio in violations}
        assert "dep" in kinds
        dep = next(vio for vio in violations if vio.kind == "dep")
        assert (dep.u, dep.v) == ("a", "b")
        # b at 0.2 breaks both dataflow and transfer slack; every
        # finding names the same witness edge
        findings = trace_findings(chain, split_schedule, corrupt)
        assert findings
        assert all(f.kind == "linearization" for f in findings)
        assert all(f.location == "edge:a->b" for f in findings)

    def test_engine_rejects_corrupted_replay_live(self, deadlock_pair):
        """The runtime sanitizer is the last line: an engine driven
        into a cyclic wait dies with the witness, not the watchdog."""
        graph, schedule = deadlock_pair
        from repro.sanitize import SanitizeViolation

        with pytest.raises(SanitizeViolation, match="witness cycle"):
            MultiGpuEngine(EngineConfig(sanitize=True)).run(
                graph, schedule, validate=False
            )
