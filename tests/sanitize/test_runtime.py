"""The TSan-style engine sanitizer (``HIOS_SANITIZE=1``)."""

import pytest

from repro.core import OpGraph, Schedule, Stage, priority_order
from repro.core.api import make_profile, schedule_graph
from repro.models.randomdag import random_layered_dag
from repro.sanitize import RuntimeSanitizer, SanitizeViolation, sanitize_enabled
from repro.sanitize.runtime import sanitizer_for
from repro.substrate import EngineConfig, FaultPlan, MultiGpuEngine

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
            RuntimeSanitizer(graph, schedule)


class TestObserve:
    def test_clean_run_replays_event_by_event(self, diamond, diamond_schedule):
        """Replaying a recorded clean trace through the sanitizer in
        causal time order raises nothing and checks every event."""
        sanitizer = RuntimeSanitizer(diamond, diamond_schedule)
        trace = make_engine(sanitize=False).run(diamond, diamond_schedule)
        # (time, tiebreak) ordering: at equal timestamps predecessors
        # must be observed first (finish < send < recv < launch < start)
        timeline = []
        for rank, kind in enumerate(("finish", "send", "recv", "launch", "start")):
            if kind in ("send", "recv"):
                continue
            for op, t in getattr(trace, f"op_{kind}").items():
                timeline.append((t, rank, kind, (op,)))
        for rec in trace.transfers:
            u, _, v = rec.tag.partition("->")
            timeline.append((rec.post_time, 1, "send", (u, v)))
            timeline.append((rec.finish_time, 2, "recv", (u, v)))
        for t, _rank, kind, args in sorted(timeline):
            getattr(sanitizer, f"observe_{kind}")(*args, t)
        assert sanitizer.checked_events == len(timeline)

    def test_out_of_order_event_raises_with_causal_chain(
        self, chain, split_schedule
    ):
        sanitizer = RuntimeSanitizer(chain, split_schedule)
        sanitizer.observe_launch("a", 0.0)
        sanitizer.observe_start("a", 0.0)
        with pytest.raises(SanitizeViolation) as err:
            # finish(a) claims a time before start(a): lifecycle broken
            sanitizer.observe_finish("a", -1.0)
        msg = str(err.value)
        assert "happens-before violation" in msg
        assert "causal chain" in msg
        assert "kernel lifecycle order" in msg

    def test_unobserved_predecessor_raises(self, chain, split_schedule):
        sanitizer = RuntimeSanitizer(chain, split_schedule)
        with pytest.raises(SanitizeViolation, match="has not happened"):
            sanitizer.observe_start("a", 0.5)  # launch(a) never observed

    def test_same_gpu_dependency_checked_as_requirement(self, chain):
        # dependent ops sharing a stage on separate stream lanes: the
        # appended same-GPU requirement edge is the only guard left
        from repro.sanitize import ExecModel

        s = Schedule(1, [Stage(0, ("a", "b"))])
        sanitizer = RuntimeSanitizer(chain, s, ExecModel(max_streams=2))
        sanitizer.observe_launch("a", 0.0)
        sanitizer.observe_launch("b", 0.0)
        sanitizer.observe_start("a", 0.0)
        sanitizer.observe_finish("a", 1.0)
        with pytest.raises(SanitizeViolation, match="dataflow dependency"):
            sanitizer.observe_start("b", 0.5)  # before finish(a)

    def test_observe_is_idempotent(self, chain, split_schedule):
        sanitizer = RuntimeSanitizer(chain, split_schedule)
        sanitizer.observe_launch("a", 0.0)
        checked = sanitizer.checked_events
        sanitizer.observe_launch("a", 99.0)  # later duplicate: ignored
        assert sanitizer.checked_events == checked

    def test_unknown_events_are_ignored(self, chain, split_schedule):
        sanitizer = RuntimeSanitizer(chain, split_schedule)
        sanitizer.observe_start("not-an-op", 0.0)  # no crash, no count
        assert sanitizer.checked_events == 0


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
        assert checked == base  # observation must not perturb the run

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
