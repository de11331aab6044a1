"""Degraded-mode schedule repair: the fail-stop acceptance scenario,
cascading multi-failure repair, trace splicing (including its edge
cases and associativity), warm-started rescheduling, and repair-input
validation."""

from dataclasses import replace

import pytest

from repro.core import OpGraph, Schedule, Stage, priority_order, schedule_graph
from repro.core.repair import (
    RepairError,
    _spatial_seed,
    repair_schedule,
    resize_schedule,
    run_with_repair,
    splice_traces,
)
from repro.costmodel.concurrency import SaturationConcurrencyModel
from repro.costmodel.profile import CostProfile
from repro.models import random_dag_profile
from repro.sanitize import analyze
from repro.substrate import (
    EngineConfig,
    FailureEvent,
    FaultPlan,
    GpuFailure,
    MultiGpuEngine,
)
from repro.sweep import ScheduleCache


def _config(**kwargs) -> EngineConfig:
    return EngineConfig(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.06,
        **kwargs,
    )


@pytest.fixture(scope="module")
def scenario():
    """4-GPU hios-lp schedule of an 80-op random DAG plus its
    fault-free latency — the acceptance-criterion workload."""
    profile = random_dag_profile(seed=7, num_ops=80, num_layers=8, num_gpus=4)
    res = schedule_graph(profile, "hios-lp")
    clean = MultiGpuEngine(_config()).run(profile.graph, res.schedule)
    return profile, res.schedule, clean


class TestAcceptance:
    """A GpuFailure mid-run on a 4-GPU hios-lp schedule completes via
    repair on 3 GPUs, beats the sequential-on-one-GPU fallback, and the
    seeded plan reproduces the identical trace twice."""

    def test_repair_completes_and_beats_sequential_fallback(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)], seed=7)
        cfg = _config(faults=plan)

        repaired, repairs = run_with_repair(profile, schedule, config=cfg)
        assert len(repairs) == 1
        (repair,) = repairs
        assert repaired.failure is not None
        assert repair.survivors == (0, 2, 3)
        assert repair.algorithm == "hios-lp"
        assert 1 not in repair.schedule.used_gpus()
        # every operator is accounted for exactly once
        assert set(repaired.op_finish) == set(profile.graph.names)
        assert repaired.unfinished_ops(profile.graph.names) == []
        # finished ops keep their pre-failure times
        for op in repaired.failure.finished:
            assert repaired.op_finish[op] == clean.op_finish[op] or op in clean.op_finish

        fallback, fb_repairs = run_with_repair(
            profile, schedule, config=cfg, algorithm="sequential"
        )
        assert len(fb_repairs) == 1
        assert len(fb_repairs[0].schedule.used_gpus()) == 1
        assert repaired.latency < fallback.latency

    def test_seeded_plan_reproduces_identical_trace(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)], seed=7)
        cfg = _config(faults=plan)
        t1, r1 = run_with_repair(profile, schedule, config=cfg)
        t2, r2 = run_with_repair(profile, schedule, config=cfg)
        assert t1 == t2  # dataclass equality: every timestamp and record
        assert [r.schedule for r in r1] == [r.schedule for r in r2]

    def test_clean_run_returns_no_repairs(self, scenario):
        profile, schedule, clean = scenario
        trace, repairs = run_with_repair(profile, schedule, config=_config())
        assert repairs == ()
        assert trace == clean


class TestCascade:
    """Repeated failures: the tail faces the remaining plan
    (resume_after) and run_with_repair keeps repairing until a tail
    runs clean — the generalization past the single-failure model."""

    def test_two_failures_complete_via_two_rounds(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        trace, repairs = run_with_repair(profile, schedule, config=_config(faults=plan))
        assert len(repairs) == 2
        assert repairs[0].survivors == (0, 2, 3)
        assert repairs[1].survivors == (0, 3)  # GPU 1 stays excluded
        assert trace.unfinished_ops(profile.graph.names) == []
        assert set(trace.op_finish) == set(profile.graph.names)
        # the spliced trace carries the *last* failure marker
        assert trace.failure is not None
        assert trace.failure.gpu == 2

    def test_cascade_is_deterministic(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        t1, _ = run_with_repair(profile, schedule, config=_config(faults=plan))
        t2, _ = run_with_repair(profile, schedule, config=_config(faults=plan))
        assert t1 == t2

    def test_max_repairs_strict_raises(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        with pytest.raises(RepairError, match="budget exhausted"):
            run_with_repair(
                profile, schedule, config=_config(faults=plan), max_repairs=1
            )

    def test_max_repairs_lenient_returns_partial(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        trace, repairs = run_with_repair(
            profile, schedule, config=_config(faults=plan), max_repairs=1, strict=False
        )
        assert len(repairs) == 1
        assert trace.failure is not None
        assert trace.unfinished_ops(profile.graph.names)

    def test_all_gpus_lost_strict_raises_lenient_returns(self):
        profile = random_dag_profile(seed=3, num_ops=30, num_layers=5, num_gpus=2)
        res = schedule_graph(profile, "hios-lp")
        clean = MultiGpuEngine(_config()).run(profile.graph, res.schedule)
        plan = FaultPlan(
            [
                GpuFailure(gpu=0, at=clean.latency * 0.2),
                GpuFailure(gpu=1, at=clean.latency * 0.5),
            ],
            seed=3,
        )
        with pytest.raises(RepairError, match="no surviving"):
            run_with_repair(profile, res.schedule, config=_config(faults=plan))
        trace, repairs = run_with_repair(
            profile, res.schedule, config=_config(faults=plan), strict=False
        )
        assert len(repairs) == 1  # onto the last GPU, which then died too
        assert trace.failure is not None
        assert trace.unfinished_ops(profile.graph.names)


class TestRepairSchedule:
    def test_repair_only_schedules_unfinished(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)])
        head = MultiGpuEngine(_config(faults=plan)).run(profile.graph, schedule)
        repair = repair_schedule(profile, head.failure)
        expected = head.failure.unfinished(profile.graph.names)
        assert set(repair.subgraph.names) == set(expected)
        assert set(repair.schedule.operators()) == set(expected)
        assert repair.predicted_tail_latency > 0

    def test_dead_gpus_excluded_from_survivors(self, scenario):
        profile, schedule, clean = scenario
        failure = FailureEvent(
            gpu=2, time=1.0, finished=frozenset(), in_flight=frozenset()
        )
        repair = repair_schedule(profile, failure, dead=(1,))
        assert repair.survivors == (0, 3)

    def test_nothing_to_repair(self):
        profile = random_dag_profile(seed=0, num_ops=8, num_layers=2, num_gpus=2)
        done = FailureEvent(
            gpu=0,
            time=1.0,
            finished=frozenset(profile.graph.names),
            in_flight=frozenset(),
        )
        with pytest.raises(RepairError, match="nothing to repair"):
            repair_schedule(profile, done)

    def test_no_survivors(self):
        profile = random_dag_profile(seed=0, num_ops=8, num_layers=2, num_gpus=1)
        failure = FailureEvent(
            gpu=0, time=0.1, finished=frozenset(), in_flight=frozenset()
        )
        with pytest.raises(RepairError, match="no surviving"):
            repair_schedule(profile, failure)

    def test_out_of_range_failure_gpu(self):
        profile = random_dag_profile(seed=0, num_ops=8, num_layers=2, num_gpus=2)
        failure = FailureEvent(
            gpu=9, time=0.1, finished=frozenset(), in_flight=frozenset()
        )
        with pytest.raises(RepairError, match="GPU 9"):
            repair_schedule(profile, failure)

    def test_heterogeneous_speeds_remapped_to_survivors(self):
        base = random_dag_profile(seed=3, num_ops=24, num_layers=4, num_gpus=3)
        profile = replace(base, gpu_speeds=(1.0, 0.5, 2.0))
        failure = FailureEvent(
            gpu=1,
            time=0.0,
            finished=frozenset(),
            in_flight=frozenset(),
        )
        repair = repair_schedule(profile, failure)
        assert repair.survivors == (0, 2)
        # slow GPU 1 gone: the compacted profile keeps speeds (1.0, 2.0)
        assert repair.result.schedule.num_gpus == 2


class TestWarmStart:
    """Warm-started repair: the seed projection, the margin/cold
    fallback, schedule validity (validate + happens-before clean), and
    the persistent-cache seam for cold repairs."""

    @staticmethod
    def _wide_profile(
        num_ops: int = 12, num_gpus: int = 4, occupancy: float = 0.4
    ) -> CostProfile:
        g = OpGraph()
        for i in range(num_ops):
            g.add_operator(f"v{i}", cost=1.0, occupancy=occupancy)
        return CostProfile(
            graph=g,
            concurrency=SaturationConcurrencyModel(0.06),
            num_gpus=num_gpus,
        )

    def test_wide_graph_keeps_surviving_assignment(self):
        profile = self._wide_profile()
        res = schedule_graph(profile, "hios-lp")
        failure = FailureEvent(
            gpu=3, time=0.0, finished=frozenset(), in_flight=frozenset()
        )
        repair = repair_schedule(profile, failure, warm_start_from=res.schedule)
        assert repair.warm_started is True
        assert 3 not in repair.schedule.used_gpus()
        repair.schedule.validate(repair.subgraph)
        assert analyze(repair.subgraph, repair.schedule).ok
        # the warm repair is as good as the cold one here: the wide
        # graph's balanced survivors are already an optimal mapping
        cold = repair_schedule(profile, failure)
        assert repair.result.latency <= cold.result.latency

    def test_seed_projection_compacts_and_rehomes(self):
        g = OpGraph()
        for name, cost in [("a", 5.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]:
            g.add_operator(name, cost=cost, occupancy=0.5)
        prev = Schedule(3)
        prev.append_stage(Stage(0, ("a",)))
        prev.append_stage(Stage(1, ("b",)))
        prev.append_stage(Stage(2, ("c", "d")))
        seed = _spatial_seed(g, prev.assignment(), {0: 0, 2: 1}, 2)  # survivors (0, 2)
        # a keeps slot 0; c,d compact GPU 2 -> slot 1; stranded b
        # re-homes onto the least-loaded survivor (slot 1: 4.0 < 5.0)
        assert seed == {"a": 0, "c": 1, "d": 1, "b": 1}

    def test_seed_projection_requires_full_coverage(self):
        g = OpGraph()
        g.add_operator("a", cost=1.0, occupancy=0.5)
        g.add_operator("zz", cost=1.0, occupancy=0.5)
        prev = Schedule(2)
        prev.append_stage(Stage(0, ("a",)))
        assert _spatial_seed(g, prev.assignment(), {0: 0}, 1) is None  # survivors (0,)

    def test_bad_seed_falls_back_to_cold(self, scenario):
        """A previous schedule that piled everything onto one survivor
        is a terrible seed: the margin check rejects it, the cold run
        wins, and the result is bit-identical to a plain cold repair."""
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)])
        head = MultiGpuEngine(_config(faults=plan)).run(profile.graph, schedule)
        allzero = Schedule(profile.num_gpus)
        for op in priority_order(profile.graph):
            allzero.append_stage(Stage(0, (op,)))
        warm = repair_schedule(profile, head.failure, warm_start_from=allzero)
        cold = repair_schedule(profile, head.failure)
        assert warm.warm_started is False
        assert warm.schedule == cold.schedule
        assert warm.result.latency == cold.result.latency

    def test_run_with_repair_warm_start_is_deterministic(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)], seed=7)
        cfg = _config(faults=plan)
        t1, r1 = run_with_repair(profile, schedule, config=cfg, warm_start=True)
        t2, r2 = run_with_repair(profile, schedule, config=cfg, warm_start=True)
        assert t1 == t2
        assert [r.warm_started for r in r1] == [r.warm_started for r in r2]
        assert t1.unfinished_ops(profile.graph.names) == []
        for r in r1:
            r.schedule.validate(r.subgraph)
            assert analyze(r.subgraph, r.schedule).ok

    def test_sched_cache_serves_cold_repairs(self, scenario, tmp_path):
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=clean.latency * 0.4)])
        head = MultiGpuEngine(_config(faults=plan)).run(profile.graph, schedule)
        cache = ScheduleCache(tmp_path)
        first = repair_schedule(profile, head.failure, sched_cache=cache)
        assert cache.stats()["entries"] == 1
        second = repair_schedule(profile, head.failure, sched_cache=cache)
        assert second.schedule == first.schedule
        assert second.result.latency == first.result.latency
        assert cache.hits >= 1

    def test_warm_results_are_never_persisted(self, tmp_path):
        # occupancy 1.0 puts the warm latency within the margin of the
        # lower bound, so no cold fallback runs — and a margin-accepted
        # warm schedule must never be written to the persistent cache
        # (it is seeded by a run-specific previous schedule)
        profile = self._wide_profile(occupancy=1.0)
        res = schedule_graph(profile, "hios-lp")
        failure = FailureEvent(
            gpu=3, time=0.0, finished=frozenset(), in_flight=frozenset()
        )
        cache = ScheduleCache(tmp_path)
        repair = repair_schedule(
            profile, failure, warm_start_from=res.schedule, sched_cache=cache
        )
        assert repair.warm_started is True
        assert cache.stats()["entries"] == 0


class TestSplice:
    def test_splice_requires_failed_head(self, scenario):
        profile, schedule, clean = scenario
        with pytest.raises(RepairError, match="did not fail"):
            splice_traces(clean, clean)

    def test_spliced_timestamps_are_shifted(self, scenario):
        profile, schedule, clean = scenario
        at = clean.latency * 0.4
        plan = FaultPlan([GpuFailure(gpu=1, at=at)])
        combined, repairs = run_with_repair(
            profile, schedule, config=_config(faults=plan)
        )
        assert combined.latency >= at
        for op in repairs[0].subgraph.names:
            assert combined.op_start[op] >= at - 1e-9
        for op in combined.failure.finished:
            assert combined.op_finish[op] <= at + 1e-9

    def test_failure_at_time_zero(self, scenario):
        """A fail-stop at t=0: the head finishes nothing, the whole
        graph re-runs on the survivors, and the splice is a pure shift
        by zero."""
        profile, schedule, clean = scenario
        plan = FaultPlan([GpuFailure(gpu=1, at=0.0)])
        trace, repairs = run_with_repair(profile, schedule, config=_config(faults=plan))
        assert len(repairs) == 1
        assert repairs[0].failure.time == 0.0
        assert repairs[0].failure.finished == frozenset()
        assert set(repairs[0].subgraph.names) == set(profile.graph.names)
        assert trace.unfinished_ops(profile.graph.names) == []

    def test_head_with_zero_finished_ops_on_failed_gpu(self, scenario):
        """Failing a GPU before it completes anything still splices: the
        head contributes only what *other* GPUs finished."""
        profile, schedule, clean = scenario
        ops_on_1 = [op for op in schedule.operators() if schedule.gpu_of(op) == 1]
        first_finish = min(clean.op_finish[op] for op in ops_on_1)
        plan = FaultPlan([GpuFailure(gpu=1, at=first_finish * 0.5)])
        head = MultiGpuEngine(_config(faults=plan)).run(profile.graph, schedule)
        assert not (head.failure.finished & set(ops_on_1))
        trace, repairs = run_with_repair(profile, schedule, config=_config(faults=plan))
        assert len(repairs) == 1
        assert trace.unfinished_ops(profile.graph.names) == []
        assert set(ops_on_1) <= set(repairs[0].subgraph.names)

    def test_double_splice_is_associative(self, scenario):
        """splice(splice(a, b), c) == splice(a, splice(b, c)) — the
        property that lets run_with_repair left-fold a cascade one
        segment at a time."""
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        cfg = _config(faults=plan)
        engine = MultiGpuEngine(cfg)
        a = engine.run(profile.graph, schedule)
        r1 = repair_schedule(profile, a.failure)
        tail_plan = plan.resume_after(a.failure.time, dead=[a.failure.gpu])
        b = MultiGpuEngine(replace(cfg, faults=tail_plan)).run(
            r1.subgraph, r1.schedule
        )
        assert b.failure is not None  # the second failure struck the tail
        r2 = repair_schedule(
            profile,
            splice_traces(a, b).failure,
            dead=(a.failure.gpu,),
        )
        tail2_plan = tail_plan.resume_after(
            b.failure.time, dead=[a.failure.gpu, b.failure.gpu]
        )
        c = MultiGpuEngine(replace(cfg, faults=tail2_plan)).run(
            r2.subgraph, r2.schedule
        )
        assert c.failure is None

        left = splice_traces(splice_traces(a, b), c)
        right = splice_traces(a, splice_traces(b, c))
        # equal up to float rounding: the two orders sum the same shifts
        assert left.latency == pytest.approx(right.latency)
        assert set(left.op_finish) == set(right.op_finish)
        for op, t in left.op_finish.items():
            assert t == pytest.approx(right.op_finish[op])
        assert left.failure == right.failure
        # and the left-fold matches what run_with_repair produced exactly
        folded, repairs = run_with_repair(profile, schedule, config=cfg)
        assert len(repairs) == 2
        assert folded == left

    def test_splice_partial_tail_merges_failure_state(self, scenario):
        profile, schedule, clean = scenario
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=clean.latency * 0.3),
                GpuFailure(gpu=2, at=clean.latency * 0.6),
            ],
            seed=7,
        )
        cfg = _config(faults=plan)
        a = MultiGpuEngine(cfg).run(profile.graph, schedule)
        r1 = repair_schedule(profile, a.failure)
        tail_plan = plan.resume_after(a.failure.time, dead=[a.failure.gpu])
        b = MultiGpuEngine(replace(cfg, faults=tail_plan)).run(
            r1.subgraph, r1.schedule
        )
        combined = splice_traces(a, b)
        assert combined.failure.gpu == b.failure.gpu
        assert combined.failure.time == pytest.approx(
            a.failure.time + b.failure.time
        )
        assert combined.failure.finished == a.failure.finished | b.failure.finished
        assert combined.failure.in_flight == b.failure.in_flight


class TestResumeAfter:
    def test_dead_specs_dropped_and_clock_shifted(self):
        plan = FaultPlan.from_strings(
            ["fail:1@5", "fail:2@9", "slow:0@2x0.5", "loss:0.1"], seed=4
        )
        tail = plan.resume_after(5.0, dead=[1])
        kinds = [type(sp).__name__ for sp in tail.specs]
        assert kinds == ["GpuFailure", "GpuSlowdown", "TransferLoss"]
        fail, slow, loss = tail.specs
        assert (fail.gpu, fail.at) == (2, 4.0)  # 9 - 5
        assert (slow.gpu, slow.at) == (0, 0.0)  # persistent state re-fires at 0
        assert loss.prob == 0.1  # kept verbatim
        assert tail.seed == 4

    def test_already_fired_failures_disappear(self):
        plan = FaultPlan.from_strings(["fail:0@1", "fail:1@3"], seed=0)
        tail = plan.resume_after(2.0, dead=[0])
        assert [type(sp).__name__ for sp in tail.specs] == ["GpuFailure"]
        assert tail.specs[0].at == 1.0

    def test_same_instant_failure_refires_at_zero(self):
        # a failure at exactly the cut on a *surviving* GPU re-fires at
        # t=0 in the tail (at < cut drops, at == cut keeps)
        plan = FaultPlan.from_strings(["fail:0@5", "fail:1@5"], seed=0)
        tail = plan.resume_after(5.0, dead=[0])
        assert len(tail.specs) == 1
        assert tail.specs[0].gpu == 1
        assert tail.specs[0].at == 0.0

    def test_negative_cut_rejected(self):
        plan = FaultPlan.from_strings(["fail:0@5"], seed=0)
        with pytest.raises(Exception, match="negative resume cut"):
            plan.resume_after(-1.0)


class TestResizeSchedule:
    """Elastic re-planning: the unfinished remainder of a query is
    re-scheduled at a different GPU count, warm-started from the old
    assignment projected through the lease slot map."""

    @staticmethod
    def _assignment(schedule: Schedule) -> dict[str, int]:
        return {
            op: g
            for g in range(schedule.num_gpus)
            for st in schedule.stages_on(g)
            for op in st.ops
        }

    @pytest.fixture(scope="class")
    def widths(self):
        """The same random DAG profiled at widths 2 and 4."""
        narrow = random_dag_profile(seed=7, num_ops=40, num_layers=6, num_gpus=2)
        wide = random_dag_profile(seed=7, num_ops=40, num_layers=6, num_gpus=4)
        assert narrow.graph.names == wide.graph.names
        return narrow, wide

    def test_grow_replans_only_the_remainder(self, widths):
        narrow, wide = widths
        old = schedule_graph(narrow, "hios-lp").schedule
        finished = frozenset(priority_order(narrow.graph)[:15])
        rr = resize_schedule(
            wide,
            finished,
            prev_assignment=self._assignment(old),
            slot_map={0: 0, 1: 1},  # surviving GPUs keep their slots
            algorithm="hios-lp",
        )
        assert set(rr.subgraph.names) == set(narrow.graph.names) - finished
        assert set(rr.schedule.operators()) == set(rr.subgraph.names)
        assert rr.schedule.num_gpus == 4
        assert rr.result.latency > 0

    def test_shrink_seed_rehomes_stranded_ops(self, widths):
        narrow, wide = widths
        old = schedule_graph(wide, "hios-lp").schedule
        finished = frozenset(priority_order(wide.graph)[:10])
        assignment = self._assignment(old)
        # shrink 4 -> 2: slots 1 and 3 survive as the new 0 and 1;
        # operators stranded on the dropped slots are re-homed
        rr = resize_schedule(
            narrow,
            finished,
            prev_assignment=assignment,
            slot_map={1: 0, 3: 1},
            algorithm="hios-lp",
        )
        assert rr.schedule.num_gpus == 2
        assert set(rr.schedule.operators()) == set(wide.graph.names) - finished
        # the projected seed covers every remaining op within the new width
        seed = _spatial_seed(rr.subgraph, assignment, {1: 0, 3: 1}, 2)
        assert seed is not None
        assert set(seed) == set(rr.subgraph.names)
        assert set(seed.values()) <= {0, 1}
        # surviving slots map through; ops from dropped slots are re-homed
        for op, g in assignment.items():
            if op in seed and g in (1, 3):
                assert seed[op] == {1: 0, 3: 1}[g]

    def test_missing_seed_falls_back_to_cold(self, widths):
        narrow, wide = widths
        finished = frozenset(priority_order(wide.graph)[:10])
        rr = resize_schedule(
            narrow,
            finished,
            prev_assignment=None,  # no prior assignment at all
            slot_map=None,
            algorithm="hios-lp",
        )
        assert not rr.warm_started
        assert set(rr.schedule.operators()) == set(wide.graph.names) - finished

    def test_nothing_left_to_plan_raises(self, widths):
        narrow, _ = widths
        with pytest.raises(RepairError, match="nothing"):
            resize_schedule(narrow, frozenset(narrow.graph.names))

    def test_resize_is_deterministic(self, widths):
        narrow, wide = widths
        old = schedule_graph(narrow, "hios-lp").schedule
        finished = frozenset(priority_order(narrow.graph)[:15])
        kwargs = dict(
            prev_assignment=self._assignment(old),
            slot_map={0: 0, 1: 1},
            algorithm="hios-lp",
        )
        r1 = resize_schedule(wide, finished, **kwargs)
        r2 = resize_schedule(wide, finished, **kwargs)
        assert r1.schedule.all_stages() == r2.schedule.all_stages()
        assert r1.result.latency == r2.result.latency
