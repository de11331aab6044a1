"""Tests for the discrete-event multi-GPU engine."""

import pytest

from repro.core import OpGraph, Schedule, Stage
from repro.substrate import EngineConfig, MultiGpuEngine


def engine(**kwargs):
    defaults = dict(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.0,
    )
    defaults.update(kwargs)
    return MultiGpuEngine(EngineConfig(**defaults))


def chain():
    return OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])


class TestBasicTiming:
    def test_sequential_chain_one_gpu(self):
        g = chain()
        s = Schedule(1)
        s.append_op(0, "a")
        s.append_op(0, "b")
        tr = engine().run(g, s)
        assert tr.latency == pytest.approx(3.0)
        assert tr.op_finish["a"] == pytest.approx(1.0)
        assert tr.op_start["b"] == pytest.approx(1.0)
        assert tr.num_transfers == 0

    def test_cross_gpu_transfer(self):
        g = chain()
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        tr = engine().run(g, s)
        # a: 0-1, transfer 1-1.5, b: 1.5-3.5
        assert tr.latency == pytest.approx(3.5)
        assert tr.num_transfers == 1
        assert tr.transfers[0].duration == pytest.approx(0.5)

    def test_launch_overhead_serializes(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [], occupancy=0.4)
        s = Schedule(1, [Stage(0, ("a", "b"))])
        tr = engine(launch_overhead_ms=0.1).run(g, s)
        # launches at 0.1 and 0.2; both kernels run 1.0 concurrently
        assert tr.op_start["a"] == pytest.approx(0.1)
        assert tr.op_start["b"] == pytest.approx(0.2)
        assert tr.latency == pytest.approx(1.2)

    def test_launch_included_in_cost(self):
        g = OpGraph.from_edges({"a": 1.0}, [])
        s = Schedule(1, [Stage(0, ("a",))])
        tr = engine(launch_overhead_ms=0.1, launch_included_in_cost=True).run(g, s)
        # kernel shrinks to 0.9, total stays 1.0
        assert tr.latency == pytest.approx(1.0)

    def test_stage_barrier(self):
        g = OpGraph.from_edges({"a": 2.0, "b": 1.0, "c": 1.0}, [], occupancy=0.4)
        s = Schedule(1)
        s.append_stage(Stage(0, ("a", "b")))
        s.append_stage(Stage(0, ("c",)))
        tr = engine().run(g, s)
        # c waits for the whole first stage (a finishes at 2)
        assert tr.op_start["c"] == pytest.approx(2.0)


class TestContention:
    def test_saturating_kernels_slow_down(self):
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0}, [], occupancy=1.0
        )
        s = Schedule(1, [Stage(0, ("a", "b"))])
        tr = engine(contention_penalty=0.06).run(g, s)
        # both saturate: slowdown 2*(1.06) -> finish at 2.12
        assert tr.latency == pytest.approx(2.12)

    def test_small_kernels_truly_parallel(self):
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0}, [], occupancy={"a": 0.3, "b": 0.3}
        )
        s = Schedule(1, [Stage(0, ("a", "b"))])
        tr = engine(contention_penalty=0.06).run(g, s)
        assert tr.latency == pytest.approx(1.0)

    def test_stream_overhead(self):
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0}, [], occupancy={"a": 0.3, "b": 0.3}
        )
        s = Schedule(1, [Stage(0, ("a", "b"))])
        tr = engine(stream_overhead=0.5).run(g, s)
        assert tr.latency == pytest.approx(1.5)


class TestCommunicationModes:
    def three_op_graph(self):
        # a on GPU0 feeds b on GPU1; d fills GPU0 afterwards
        return OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "d": 1.0}, [("a", "b", 3.0)]
        )

    def schedule(self):
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(0, "d")
        s.append_op(1, "b")
        return s

    def test_send_blocking_stalls_host(self):
        tr = engine(send_blocking=True).run(self.three_op_graph(), self.schedule())
        # host 0 blocked by the send until 4; d runs 4-5
        assert tr.op_start["d"] == pytest.approx(4.0)
        assert tr.latency == pytest.approx(5.0)

    def test_non_blocking_send(self):
        tr = engine(send_blocking=False).run(self.three_op_graph(), self.schedule())
        assert tr.op_start["d"] == pytest.approx(1.0)
        assert tr.latency == pytest.approx(5.0)  # b ends at 5

    def test_recv_blocks_host_in_mpi_mode(self):
        # GPU1 runs [b, c]; b waits for remote data, blocking c's launch
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 3.0)]
        )
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_stage(Stage(1, ("b", "c")))
        tr = engine(send_blocking=False, overlap_launch=False).run(g, s)
        # data for b arrives at 4; c (behind b in launch order) also
        # cannot launch before 4
        assert tr.op_start["b"] == pytest.approx(4.0)
        assert tr.op_start["c"] == pytest.approx(4.0)

    def test_overlap_launch_frees_later_ops(self):
        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 3.0)]
        )
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_stage(Stage(1, ("b", "c")))
        tr = engine(send_blocking=False, overlap_launch=True).run(g, s)
        # c launches eagerly and runs immediately; b still waits for data
        assert tr.op_start["c"] == pytest.approx(0.0)
        assert tr.op_start["b"] == pytest.approx(4.0)

    def test_blocked_head_holds_back_a_fed_later_op(self):
        # GPU1 runs [b, c]; c's input (from p) lands at 1.6, b's (from
        # a, queued behind it on the channel) only at 4.6: the host
        # stays blocked on b, so c launches after b though fed first
        g = OpGraph.from_edges(
            {"a": 1.0, "p": 0.5, "b": 1.0, "c": 1.0},
            [("a", "b", 3.0), ("p", "c", 0.9)],
            occupancy=0.4,
        )
        s = Schedule(2, [Stage(0, ("a", "p")), Stage(1, ("b", "c"))])
        tr = engine(launch_overhead_ms=0.1, send_blocking=False).run(g, s)
        assert tr.transfers[0].tag == "p->c"
        assert tr.transfers[0].finish_time == pytest.approx(1.6)
        assert tr.transfers[1].finish_time == pytest.approx(4.6)
        assert tr.op_launch["b"] == pytest.approx(4.7)
        assert tr.op_launch["c"] == pytest.approx(4.8)
        assert tr.op_start["c"] == pytest.approx(4.8)

    def test_overlap_consumer_fed_before_launch_starts_at_launch(self):
        # b's input lands at 0.21, but b sits behind x's stage on GPU1
        # and is launched only at 2.02: it starts right there
        g = OpGraph.from_edges(
            {"a": 0.1, "x": 2.0, "b": 1.0}, [("a", "b", 0.1)]
        )
        s = Schedule(2, [Stage(0, ("a",)), Stage(1, ("x",)), Stage(1, ("b",))])
        tr = engine(launch_overhead_ms=0.01, overlap_launch=True).run(g, s)
        assert tr.transfers[0].finish_time == pytest.approx(0.21)
        assert tr.op_launch["b"] == pytest.approx(2.02)
        assert tr.op_start["b"] == pytest.approx(tr.op_launch["b"])


class TestTraceAndValidation:
    def test_utilization(self):
        g = chain()
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        tr = engine().run(g, s)
        assert 0 < tr.utilization(0) < 1
        assert tr.gpu_busy[0] == pytest.approx(1.0)
        assert tr.gpu_busy[1] == pytest.approx(2.0)

    def test_invalid_schedule_rejected(self):
        g = chain()
        s = Schedule(1)
        s.append_op(0, "b")
        s.append_op(0, "a")
        with pytest.raises(Exception):
            engine().run(g, s)

    def test_empty_graph(self):
        tr = engine().run(OpGraph(), Schedule(1))
        assert tr.latency == 0.0

    def test_matches_evaluator_on_single_gpu_singletons(self):
        """With zero launch overhead, singleton stages on one GPU time
        out identically in the engine and the analytic evaluator."""
        from repro.core import evaluate_latency, priority_order
        from repro.costmodel import CostProfile
        from repro.models.randomdag import random_layered_dag

        g = random_layered_dag(num_ops=30, num_layers=5, seed=7)
        s = Schedule(1)
        for v in priority_order(g):
            s.append_op(0, v)
        tr = engine().run(g, s)
        prof = CostProfile(graph=g, num_gpus=1)
        assert tr.latency == pytest.approx(evaluate_latency(prof, s))


class TestEngineReuse:
    def test_runs_share_no_state(self):
        """One engine gives a failure trace, raises mid-run and then runs
        clean; each trace equals a fresh engine's."""
        from repro.substrate import EngineError, FaultPlan

        diamond = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            [("a", "b", 0.5), ("a", "c", 0.5), ("b", "d", 0.5), ("c", "d", 0.5)],
            occupancy=0.4,
        )
        # b runs 1.5-2.5 on GPU 1, which fails at 2.0
        failing = Schedule(
            2, [Stage(0, ("a",)), Stage(1, ("b",)), Stage(0, ("c",)), Stage(0, ("d",))]
        )
        # each GPU's first operator waits on the other's second: the
        # watchdog fires before the failure does (sanitizer off, so the
        # static deadlock check does not preempt the run)
        pair = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, [("a", "b"), ("c", "d")]
        )
        cyclic = Schedule(
            2, [Stage(0, ("d",)), Stage(0, ("a",)), Stage(1, ("b",)), Stage(1, ("c",))]
        )
        small = OpGraph.from_edges({"a": 0.5, "b": 0.5}, [("a", "b", 0.5)])
        clean = Schedule(2, [Stage(0, ("a",)), Stage(0, ("b",))])

        def fresh():
            return engine(
                faults=FaultPlan.from_strings(["fail:1@2.0"]),
                watchdog_horizon_ms=1.0,
                sanitize=False,
            )

        reused = fresh()
        partial = reused.run(diamond, failing)
        assert partial.failure is not None and partial.latency == pytest.approx(2.0)
        with pytest.raises(EngineError, match="watchdog"):
            reused.run(pair, cyclic, validate=False)
        done = reused.run(small, clean)
        assert done.failure is None and done.latency == pytest.approx(1.0)
        assert partial == fresh().run(diamond, failing)
        assert done == fresh().run(small, clean)


class TestStreamLimits:
    def _graph(self, n=4):
        return OpGraph.from_edges(
            {f"v{i}": 1.0 for i in range(n)}, [], occupancy=0.1
        )

    def _stage_schedule(self, n=4):
        s = Schedule(1, [Stage(0, tuple(f"v{i}" for i in range(n)))])
        return s

    def test_single_stream_serializes_stage(self):
        tr = engine(max_streams=1).run(self._graph(), self._stage_schedule())
        assert tr.latency == pytest.approx(4.0)
        starts = sorted(tr.op_start.values())
        assert starts == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_two_streams_halve_serialization(self):
        tr = engine(max_streams=2).run(self._graph(), self._stage_schedule())
        assert tr.latency == pytest.approx(2.0)

    def test_unbounded_streams_fully_concurrent(self):
        tr = engine(max_streams=0).run(self._graph(), self._stage_schedule())
        assert tr.latency == pytest.approx(1.0)

    def test_streams_reset_between_stages(self):
        g = self._graph(4)
        s = Schedule(1)
        s.append_stage(Stage(0, ("v0", "v1")))
        s.append_stage(Stage(0, ("v2", "v3")))
        tr = engine(max_streams=2).run(g, s)
        assert tr.latency == pytest.approx(2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_streams=-1)


class TestDeadlockDetection:
    def test_cyclic_schedule_raises_engine_error(self):
        """A schedule with a cross-GPU wait cycle (validation skipped)
        must be detected as a deadlock, not hang."""
        from repro.substrate import EngineError

        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, [("a", "b"), ("c", "d")]
        )
        s = Schedule(2)
        s.append_op(0, "d")  # needs c (GPU1, behind b)
        s.append_op(0, "a")
        s.append_op(1, "b")  # needs a (GPU0, behind d)
        s.append_op(1, "c")
        with pytest.raises(EngineError, match="deadlock"):
            engine().run(g, s, validate=False)


class TestCommittedTraceArtifact:
    """The engine still reproduces the committed ``repro.trace/v1``
    artifact that ``repro lint``, ``trace`` and ``sanitize`` are fed."""

    def test_inception_hios_lp_trace(self):
        import json
        import pathlib

        from repro.core.graphio import graph_from_dict
        from repro.experiments.realmodels import default_profiler

        lint_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results/lint"

        def load(name):
            return json.loads((lint_dir / name).read_text())

        graph = graph_from_dict(load("graph_inception_299.json"))
        schedule = Schedule.from_dict(load("schedule_inception_299_hios-lp.json"))
        want = load("trace_inception_299_hios-lp.json")
        got = default_profiler(num_gpus=2).engine().run(graph, schedule).to_dict()

        # exact structure; times to a relative 1e-9, since how float sum()
        # rounds may differ between Python versions
        assert got.keys() == want.keys()
        assert got["latency"] == pytest.approx(want["latency"], rel=1e-9)
        for key in ("op_launch", "op_start", "op_finish", "gpu_busy"):
            assert got[key].keys() == want[key].keys()
            assert got[key] == pytest.approx(want[key], rel=1e-9)
        assert [t["tag"] for t in got["transfers"]] == [t["tag"] for t in want["transfers"]]
        exact = ("src", "dst", "tag", "num_bytes", "attempts")
        for g, w in zip(got["transfers"], want["transfers"]):
            assert {k: g[k] for k in exact} == {k: w[k] for k in exact}
            assert g == pytest.approx(w, rel=1e-9)
