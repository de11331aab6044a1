"""Vector clocks + the trace linearization checkers."""

from dataclasses import replace

import pytest

from repro.core import OpGraph, Schedule, Stage
from repro.sanitize import (
    CyclicHbGraphError,
    ExecModel,
    HbClocks,
    build_hb_graph,
    check_engine_trace,
    check_timeline,
    dependency_violations,
    timeline_hb_graph,
    transfer_violations,
)
from repro.sanitize.hbgraph import ev_finish, ev_launch, ev_start
from repro.sanitize.vclock import thread_of
from repro.substrate.engine import ExecutionTrace

from .conftest import make_engine


class TestHbClocks:
    def test_cyclic_graph_rejected(self, deadlock_pair):
        graph, schedule = deadlock_pair
        hb = build_hb_graph(graph, schedule)
        with pytest.raises(CyclicHbGraphError, match="cyclic"):
            HbClocks(hb)

    def test_precedes_is_transitive_reachability(self, chain, split_schedule):
        hb = build_hb_graph(chain, split_schedule)
        clocks = HbClocks(hb)
        # the full pipeline is a chain: launch(a) ... start(b) ... finish(b)
        assert clocks.precedes_events(ev_launch("a"), ev_finish("b"))
        assert clocks.precedes_events(ev_finish("a"), ev_start("b"))
        assert not clocks.precedes_events(ev_start("b"), ev_finish("a"))
        ia = hb.index[ev_start("a")]
        assert not clocks.precedes(ia, ia)  # strict order

    def test_concurrent_is_symmetric_and_irreflexive(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [])
        s = Schedule(2, [Stage(0, ("a",)), Stage(1, ("b",))])
        hb = build_hb_graph(g, s)
        clocks = HbClocks(hb)
        ia, ib = hb.index[ev_start("a")], hb.index[ev_start("b")]
        assert clocks.concurrent(ia, ib) and clocks.concurrent(ib, ia)
        assert not clocks.concurrent(ia, ia)

    def test_clock_of_componentwise_equivalence(self, diamond, diamond_schedule):
        """The textbook property: a HB b iff clock(a) <= clock(b)
        componentwise (and a != b)."""
        hb = build_hb_graph(diamond, diamond_schedule)
        clocks = HbClocks(hb)
        materialized = [clocks.clock_of(i) for i in range(hb.num_events)]

        def leq(ca, cb):
            return all(cb.get(thread, 0) >= pos for thread, pos in ca.items())

        for a in range(hb.num_events):
            for b in range(hb.num_events):
                if a == b:
                    continue
                assert clocks.precedes(a, b) == leq(
                    materialized[a], materialized[b]
                ), (hb.events[a], hb.events[b])

    def test_clock_of_includes_own_thread(self, chain, split_schedule):
        hb = build_hb_graph(chain, split_schedule)
        clocks = HbClocks(hb)
        clock = clocks.clock_of(hb.index[ev_start("a")])
        assert clock[thread_of(ev_start("a"))] == 2  # launch=1 < start=2


class TestRequirementLayer:
    def _trace(self, **overrides):
        base = dict(
            latency=2.6,
            op_launch={"a": 0.0, "b": 0.1},
            op_start={"a": 0.0, "b": 1.6},
            op_finish={"a": 1.0, "b": 2.6},
            transfers=[],
            gpu_busy={0: 1.0, 1: 1.0},
        )
        base.update(overrides)
        return ExecutionTrace(**base)

    def test_clean_trace_no_violations(self, chain, split_schedule):
        trace = self._trace()
        assert not list(dependency_violations(chain, trace))
        assert not list(transfer_violations(chain, split_schedule, trace))

    def test_missing_producer(self, chain):
        trace = self._trace(op_finish={"b": 2.6})
        (vio,) = dependency_violations(chain, trace)
        assert vio.kind == "dep" and vio.t_src is None
        assert (vio.u, vio.v) == ("a", "b")
        assert "never happened" in vio.describe()

    def test_late_start(self, chain):
        trace = self._trace(op_start={"a": 0.0, "b": 0.5})
        (vio,) = dependency_violations(chain, trace)
        assert vio.t_src == 1.0 and vio.t_dst == 0.5

    def test_transfer_slack_enforced(self, chain, split_schedule):
        trace = self._trace(op_start={"a": 0.0, "b": 1.2})
        assert not list(dependency_violations(chain, trace))
        (vio,) = transfer_violations(chain, split_schedule, trace)
        assert vio.kind == "transfer" and vio.transfer == 0.5
        assert "transfer 0.5" in vio.describe()

    def test_checkpointed_producer_exempt(self, chain, split_schedule):
        trace = self._trace(op_start={"a": 0.0, "b": 1.2})
        assert not list(
            transfer_violations(
                chain, split_schedule, trace, checkpointed=frozenset({"a"})
            )
        )

    def test_same_gpu_edge_has_no_transfer_requirement(self, chain):
        s = Schedule(1, [Stage(0, ("a",)), Stage(0, ("b",))])
        trace = self._trace(op_start={"a": 0.0, "b": 1.0})
        assert not list(transfer_violations(chain, s, trace))


class TestCheckEngineTrace:
    def test_engine_trace_linearizes(self, diamond, diamond_schedule):
        trace = make_engine().run(diamond, diamond_schedule)
        assert check_engine_trace(diamond, diamond_schedule, trace) == []

    def test_overlap_trace_needs_matching_model(self, diamond, diamond_schedule):
        trace = make_engine(overlap_launch=True).run(diamond, diamond_schedule)
        model = ExecModel(overlap_launch=True)
        assert (
            check_engine_trace(diamond, diamond_schedule, trace, model) == []
        )

    def test_reordered_trace_fails_with_witness_edge(
        self, diamond, diamond_schedule
    ):
        trace = make_engine().run(diamond, diamond_schedule)
        # pretend 'd' started before its producer 'b' finished
        corrupt = replace(
            trace,
            op_start={**trace.op_start, "d": trace.op_finish["b"] - 0.4},
        )
        violations = check_engine_trace(diamond, diamond_schedule, corrupt)
        assert violations
        kinds = {vio.kind for vio in violations}
        assert "dep" in kinds  # the requirement layer names the edge
        dep = next(vio for vio in violations if vio.kind == "dep")
        assert (dep.u, dep.v) in {("b", "d"), ("c", "d")}

    def test_structural_layer_catches_stage_barrier_breaks(
        self, diamond, diamond_schedule
    ):
        trace = make_engine().run(diamond, diamond_schedule)
        # move a launch before its program-order predecessor: no
        # requirement (dataflow) is violated, only the enforced order
        corrupt = replace(
            trace,
            op_launch={**trace.op_launch, "d": trace.op_launch["a"] - 1.0},
        )
        violations = check_engine_trace(diamond, diamond_schedule, corrupt)
        kinds = {vio.kind for vio in violations}
        assert kinds & {"program", "stage", "op", "host"}

    def test_partial_failure_trace_skips_structural(self, chain, split_schedule):
        from repro.substrate import FaultPlan, GpuFailure

        plan = FaultPlan([GpuFailure(gpu=1, at=1.2)])
        trace = make_engine(faults=plan, sanitize=False).run(
            chain, split_schedule
        )
        assert trace.failure is not None
        assert check_engine_trace(chain, split_schedule, trace) == []

    def test_structural_false_skips_enforced_layer(
        self, diamond, diamond_schedule
    ):
        trace = make_engine().run(diamond, diamond_schedule)
        corrupt = replace(
            trace,
            op_launch={**trace.op_launch, "d": trace.op_launch["a"] - 1.0},
        )
        assert (
            check_engine_trace(
                diamond, diamond_schedule, corrupt, structural=False
            )
            == []
        )


class TestTimeline:
    def _timeline(self, spans):
        """spans: name -> (start, finish, gpu)."""
        return (
            ExecutionTrace(
                latency=max(f for _, f, _ in spans.values()),
                op_launch={n: s for n, (s, _, _) in spans.items()},
                op_start={n: s for n, (s, _, _) in spans.items()},
                op_finish={n: f for n, (_, f, _) in spans.items()},
                transfers=[],
                gpu_busy={},
            ),
            {n: g for n, (_, _, g) in spans.items()},
        )

    def test_serial_leases_linearize(self):
        trace, op_gpu = self._timeline(
            {"q1": (0.0, 1.0, 0), "q2": (1.0, 2.0, 0), "q3": (0.5, 1.5, 1)}
        )
        assert check_timeline(trace, op_gpu) == []

    def test_overlapping_leases_on_one_gpu_flagged(self):
        trace, op_gpu = self._timeline(
            {"q1": (0.0, 1.0, 0), "q2": (0.5, 1.5, 0)}
        )
        (vio,) = check_timeline(trace, op_gpu)
        assert vio.kind == "lease"
        assert "exclusive GPU lease" in vio.describe()

    def test_lease_chain_ordered_by_dispatch_not_launch(self):
        # q2 arrives (launches) first but dispatches second: the lease
        # chain must follow dispatch order, so this is clean
        trace = ExecutionTrace(
            latency=2.0,
            op_launch={"q1": 0.5, "q2": 0.0},
            op_start={"q1": 0.5, "q2": 1.0},
            op_finish={"q1": 1.0, "q2": 2.0},
            transfers=[],
            gpu_busy={},
        )
        assert check_timeline(trace, {"q1": 0, "q2": 0}) == []

    def test_timeline_hb_graph_has_lease_edges(self):
        trace, op_gpu = self._timeline(
            {"q1": (0.0, 1.0, 0), "q2": (1.0, 2.0, 0)}
        )
        hb = timeline_hb_graph(trace, op_gpu)
        assert (ev_finish("q1"), ev_start("q2"), "lease") in set(
            hb.iter_edges()
        )


class TestLintParity:
    """T004/T005 delegate here — the differential test keeps them honest."""

    def test_dependency_parity_with_t004(self, chain):
        from repro.lint import LintContext, Linter

        trace = ExecutionTrace(
            latency=2.6,
            op_launch={"a": 0.0, "b": 0.1},
            op_start={"a": 0.0, "b": 0.5},
            op_finish={"a": 1.0, "b": 2.6},
            transfers=[],
            gpu_busy={},
        )
        report = Linter().for_packs("trace").run(
            LintContext(graph=chain, trace=trace)
        )
        t004 = [d for d in report.diagnostics if d.rule == "T004"]
        direct = list(dependency_violations(chain, trace))
        assert len(t004) == len(direct) == 1
        # the lint message embeds exactly the checker's numbers
        assert str(direct[0].t_dst) in t004[0].message
        assert str(direct[0].t_src) in t004[0].message

    def test_transfer_parity_with_t005(self, chain, split_schedule):
        from repro.lint import LintContext, Linter

        trace = ExecutionTrace(
            latency=2.6,
            op_launch={"a": 0.0, "b": 0.1},
            op_start={"a": 0.0, "b": 1.2},
            op_finish={"a": 1.0, "b": 2.6},
            transfers=[],
            gpu_busy={},
        )
        report = Linter().for_packs("trace").run(
            LintContext(graph=chain, schedule=split_schedule, trace=trace)
        )
        t005 = [d for d in report.diagnostics if d.rule == "T005"]
        direct = list(transfer_violations(chain, split_schedule, trace))
        assert len(t005) == len(direct) == 1
        assert f"t(u,v) {direct[0].transfer}" in t005[0].message
