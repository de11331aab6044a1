"""The engine's happens-before check (``HIOS_SANITIZE=1``)."""

from dataclasses import replace

import pytest

from repro.core import OpGraph, Schedule, Stage, priority_order
from repro.core.api import make_profile, schedule_graph
from repro.models.randomdag import random_layered_dag
from repro.sanitize import SanitizeViolation, sanitize_enabled
from repro.sanitize.runtime import check_run, sanitizer_for
from repro.substrate import EngineConfig, ExecutionTrace, FaultPlan, MultiGpuEngine

from .conftest import make_engine


class TestEnvGating:
    @pytest.mark.parametrize("value", ["0", "false", "off", "no", "", "  "])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("HIOS_SANITIZE", value)
        assert not sanitize_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("HIOS_SANITIZE", value)
        assert sanitize_enabled()

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv("HIOS_SANITIZE", raising=False)
        assert not sanitize_enabled()

    def test_config_overrides_env(self, chain, split_schedule, monkeypatch):
        monkeypatch.setenv("HIOS_SANITIZE", "1")
        assert (
            sanitizer_for(chain, split_schedule, EngineConfig(sanitize=False))
            is None
        )
        monkeypatch.setenv("HIOS_SANITIZE", "0")
        assert (
            sanitizer_for(chain, split_schedule, EngineConfig(sanitize=True))
            is not None
        )

    def test_env_decides_when_config_is_none(
        self, chain, split_schedule, monkeypatch
    ):
        cfg = EngineConfig()
        assert cfg.sanitize is None
        monkeypatch.setenv("HIOS_SANITIZE", "0")
        assert sanitizer_for(chain, split_schedule, cfg) is None
        monkeypatch.setenv("HIOS_SANITIZE", "1")
        assert sanitizer_for(chain, split_schedule, cfg) is not None


class TestStaticDeadlockPreemption:
    """A cyclic-wait schedule must fail *statically* — before any
    kernel, transfer or watchdog tick — with the witness cycle."""

    def test_raises_before_event_loop(self, deadlock_pair, monkeypatch):
        graph, schedule = deadlock_pair
        from repro.substrate import engine as engine_mod

        pushed = []
        monkeypatch.setattr(
            engine_mod._EngineRun,
            "push",
            lambda self, *a: pushed.append(a),
        )
        # both hosts block on their first operator, so only the fault
        # plan's slowdown is pushed as the run state is built
        plan = FaultPlan.from_strings(["slow:0@0x0.5"])
        with pytest.raises(SanitizeViolation) as err:
            make_engine(sanitize=True, faults=plan).run(graph, schedule, validate=False)
        assert "witness cycle" in str(err.value)
        assert "watchdog" not in str(err.value)
        assert pushed == []  # the event loop never saw a single event

    def test_watchdog_never_reached(self, deadlock_pair):
        graph, schedule = deadlock_pair
        # an absurdly tight watchdog would fire instantly if the run
        # ever started; the static check preempts it
        with pytest.raises(SanitizeViolation) as err:
            make_engine(sanitize=True, watchdog_horizon_ms=1e-9).run(
                graph, schedule, validate=False
            )
        assert "deadlocks before any kernel runs" in str(err.value)

    def test_constructor_rejects_cyclic_schedule(self, deadlock_pair):
        graph, schedule = deadlock_pair
        with pytest.raises(SanitizeViolation, match="witness cycle"):
            sanitizer_for(graph, schedule, EngineConfig(sanitize=True))


def crafted_trace(launch=None, start=None, finish=None):
    """A complete trace holding only the given operator timestamps."""
    return ExecutionTrace(
        latency=max((finish or {}).values(), default=0.0),
        op_launch=dict(launch or {}),
        op_start=dict(start or {}),
        op_finish=dict(finish or {}),
        transfers=[],
        gpu_busy={},
    )


class TestObserve:
    """:func:`check_run`, the engine's post-run check, over crafted
    traces: it raises for the earliest violation with a causal chain."""

    def test_clean_run_replays_event_by_event(self, diamond, diamond_schedule):
        """A recorded clean trace checks clean."""
        hb = sanitizer_for(diamond, diamond_schedule, EngineConfig(sanitize=True))
        trace = make_engine(sanitize=False).run(diamond, diamond_schedule)
        assert trace.transfers  # the cross-GPU events are checked too
        check_run(diamond, diamond_schedule, trace, hb)

    def test_out_of_order_event_raises_with_causal_chain(
        self, chain, split_schedule
    ):
        hb = sanitizer_for(chain, split_schedule, EngineConfig(sanitize=True))
        # finish(a) claims a time before start(a): lifecycle broken
        trace = crafted_trace({"a": 0.0}, {"a": 0.0}, {"a": -1.0})
        with pytest.raises(SanitizeViolation) as err:
            check_run(chain, split_schedule, trace, hb)
        msg = str(err.value)
        assert "happens-before violation" in msg
        assert "kernel lifecycle order" in msg
        assert "causal chain" in msg
        assert "start('a') on GPU 0 at t=0" in msg

    def test_unobserved_predecessor_raises(self, chain, split_schedule):
        hb = sanitizer_for(chain, split_schedule, EngineConfig(sanitize=True))
        trace = crafted_trace(start={"a": 0.5})  # launch(a) never happened
        with pytest.raises(SanitizeViolation, match="never happened"):
            check_run(chain, split_schedule, trace, hb)

    def test_same_gpu_dependency_checked_as_requirement(self, chain):
        # dependent ops sharing a stage on separate stream lanes: the
        # same-GPU requirement is the only guard left
        s = Schedule(1, [Stage(0, ("a", "b"))])
        hb = sanitizer_for(chain, s, EngineConfig(max_streams=2, sanitize=True))
        trace = crafted_trace(
            {"a": 0.0, "b": 0.0}, {"a": 0.0, "b": 0.5}, {"a": 1.0, "b": 1.5}
        )
        with pytest.raises(SanitizeViolation, match="dataflow dependency"):
            check_run(chain, s, trace, hb)  # start(b) before finish(a)

    def test_unknown_events_are_ignored(self, chain, split_schedule):
        """A trace operator outside the schedule is not checked."""
        hb = sanitizer_for(chain, split_schedule, EngineConfig(sanitize=True))
        trace = make_engine(sanitize=False).run(chain, split_schedule)
        trace.op_start["not-an-op"] = -5.0  # no launch, no finish, no crash
        check_run(chain, split_schedule, trace, hb)


class TestEngineIntegration:
    """HIOS_SANITIZE=1 (the suite default, see tests/conftest.py) must
    be violation-free across schedulers, engine modes and fault plans —
    the acceptance matrix of the sanitizer."""

    @pytest.mark.parametrize(
        "algorithm", ["sequential", "ios", "hios-lp", "hios-mr"]
    )
    @pytest.mark.parametrize("overlap", [False, True])
    def test_algorithms_by_engine_mode(self, algorithm, overlap):
        graph = random_layered_dag(num_ops=24, num_layers=5, seed=7)
        profile = make_profile(graph, num_gpus=2)
        schedule = schedule_graph(profile, algorithm).schedule
        cfg = EngineConfig(overlap_launch=overlap, sanitize=True)
        trace = MultiGpuEngine(cfg).run(graph, schedule)
        assert trace.failure is None and trace.latency > 0.0

    def test_heterogeneous_speeds_and_streams(self):
        graph = random_layered_dag(num_ops=20, num_layers=4, seed=3)
        schedule = schedule_graph(make_profile(graph, num_gpus=2), "hios-lp").schedule
        cfg = EngineConfig(
            gpu_speeds=(1.0, 0.7), max_streams=2, sanitize=True
        )
        trace = MultiGpuEngine(cfg).run(graph, schedule)
        assert trace.failure is None

    def test_fault_plans_stay_clean(self):
        graph = random_layered_dag(num_ops=20, num_layers=4, seed=11)
        order = priority_order(graph)
        schedule = Schedule(2)
        for i, op in enumerate(order):
            schedule.append_stage(Stage(i % 2, (op,)))
        plan = FaultPlan.from_strings(
            ["slow:1@0.5x2.0", "fail:0@1.5"], seed=0
        )
        trace = make_engine(faults=plan, sanitize=True).run(graph, schedule)
        # the failure cut the run short, but nothing it *did* emit may
        # contradict the happens-before model
        assert trace.failure is not None

    def test_sanitized_trace_equals_unsanitized(self, diamond, diamond_schedule):
        base = make_engine(sanitize=False).run(diamond, diamond_schedule)
        checked = make_engine(sanitize=True).run(diamond, diamond_schedule)
        assert checked == base  # the check must not perturb the run

    @pytest.mark.parametrize(
        "knobs",
        [
            {"overlap_launch": True, "launch_overhead_ms": 0.01},
            {"max_streams": 2, "stream_overhead": 0.1},
            {"send_blocking": False},
            {"faults": FaultPlan.from_strings(["slow:0@0.5x0.5", "fail:1@2.0"])},
        ],
        ids=["overlap", "streams2", "nonblocking", "slow-fail"],
    )
    def test_sanitized_trace_equals_unsanitized_per_mode(
        self, diamond, diamond_schedule, knobs
    ):
        base = make_engine(sanitize=False, **knobs).run(diamond, diamond_schedule)
        checked = make_engine(sanitize=True, **knobs).run(diamond, diamond_schedule)
        assert checked == base
        assert (base.failure is None) == ("faults" not in knobs)


# Engine bugs the check must catch, each a change to a fresh run state
# (``_EngineRun`` after its constructor, before its first event).
def deliver_at_post_time(run):
    """A remote input is handed to its consumer at the send's post
    time; the fabric still records the real delivery."""
    post_send = run.fabric.post_send

    def at_post_time(time, *args, **kwargs):
        post_send(time, *args, **kwargs)
        return time

    run.fabric.post_send = at_post_time


def ignore_stream_lanes(run):
    """Kernels stop waiting for their stream-lane predecessor."""
    run.stream_pred.clear()


def release_stages_early(run):
    """Each GPU's next stage is released one operator early."""
    run.stage_remaining = [n - 1 for n in run.stage_remaining]


def post_sends_at_once(run):
    """Blocking sends are all posted when the producer finishes."""
    run.cfg = replace(run.cfg, send_blocking=False)


def _bug_case(bug):
    """(graph, schedule, engine knobs) of a run whose trace ``bug`` changes."""
    if bug is deliver_at_post_time:
        graph = OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b", 0.5)])
        return graph, Schedule(2, [Stage(0, ("a",)), Stage(1, ("b",))]), {}
    if bug is ignore_stream_lanes:
        graph = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [])
        return graph, Schedule(1, [Stage(0, ("a", "b", "c"))]), {"max_streams": 2}
    if bug is release_stages_early:
        graph = OpGraph.from_edges({"a": 1.0, "b": 2.0, "c": 1.0}, [])
        stages = [Stage(0, ("a", "b")), Stage(0, ("c",))]
        return graph, Schedule(1, stages), {}
    graph = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.5), ("a", "c", 0.5)]
    )
    stages = [Stage(0, ("a",)), Stage(1, ("b",)), Stage(2, ("c",))]
    return graph, Schedule(3, stages), {}


class TestCatchesEngineBugs:
    @pytest.mark.parametrize(
        "bug",
        [deliver_at_post_time, ignore_stream_lanes, release_stages_early, post_sends_at_once],
        ids=lambda bug: bug.__name__,
    )
    def test_sanitized_run_raises(self, bug, monkeypatch):
        from repro.substrate import engine as engine_mod

        graph, schedule, knobs = _bug_case(bug)
        clean = make_engine(sanitize=False, **knobs).run(graph, schedule)
        init = engine_mod._EngineRun.__init__

        def buggy_init(self, *args):
            init(self, *args)
            bug(self)

        monkeypatch.setattr(engine_mod._EngineRun, "__init__", buggy_init)
        buggy = make_engine(sanitize=False, **knobs).run(graph, schedule)
        assert buggy != clean  # the bug shows in the trace
        with pytest.raises(SanitizeViolation, match="happens-before violation"):
            make_engine(sanitize=True, **knobs).run(graph, schedule)
