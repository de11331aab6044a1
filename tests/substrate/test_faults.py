"""Tests for the declarative fault model and the fault-aware fabric."""

import pytest

from repro.substrate import (
    FaultError,
    FaultPlan,
    GpuFailure,
    GpuRepair,
    GpuSlowdown,
    LinkDegradation,
    NVLINK_BRIDGE,
    SimFabric,
    TransferLoss,
    parse_fault,
)


class TestSpecs:
    def test_slowdown_validation(self):
        with pytest.raises(FaultError):
            GpuSlowdown(gpu=-1, at=0.0, factor=0.5)
        with pytest.raises(FaultError):
            GpuSlowdown(gpu=0, at=-1.0, factor=0.5)
        with pytest.raises(FaultError):
            GpuSlowdown(gpu=0, at=0.0, factor=0.0)

    def test_failure_validation(self):
        with pytest.raises(FaultError):
            GpuFailure(gpu=0, at=-0.1)

    def test_link_validation(self):
        with pytest.raises(FaultError):
            LinkDegradation(src=1, dst=1, at=0.0, bw_factor=0.5)
        with pytest.raises(FaultError):
            LinkDegradation(src=0, dst=1, at=0.0, bw_factor=0.0)

    def test_loss_validation(self):
        with pytest.raises(FaultError):
            TransferLoss()  # neither prob nor tags
        with pytest.raises(FaultError):
            TransferLoss(prob=1.0)
        with pytest.raises(FaultError):
            TransferLoss(prob=0.1, max_retries=0)


class TestPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([GpuFailure(gpu=0, at=1.0)])

    def test_accessors(self):
        plan = FaultPlan(
            [
                GpuFailure(gpu=1, at=5.0),
                GpuFailure(gpu=0, at=2.0),
                GpuSlowdown(gpu=2, at=1.0, factor=0.5),
                LinkDegradation(src=0, dst=1, at=0.0, bw_factor=0.5),
                TransferLoss(prob=0.1),
            ]
        )
        assert [f.gpu for f in plan.failures()] == [0, 1]  # sorted by time
        assert plan.first_failure().gpu == 0
        assert len(plan.slowdowns()) == 1
        assert len(plan.degradations()) == 1
        assert len(plan.losses()) == 1

    def test_accessors_hand_out_copies(self):
        """The views are derived once; a caller that edits what it got
        cannot change what the next caller (or the engine) reads."""
        plan = FaultPlan.from_strings(
            ["fail:1@5", "fail:0@2", "repair:0@4", "slow:2@1x0.5", "link:0->1@0x0.5",
             "loss:0.1"]
        )
        views = (plan.failures, plan.repairs, plan.slowdowns, plan.degradations, plan.losses)
        before = [view() for view in views]
        for got in before:
            got.clear()
        assert [view() for view in views] == [
            [GpuFailure(gpu=0, at=2.0), GpuFailure(gpu=1, at=5.0)],
            [sp for sp in plan.specs if isinstance(sp, GpuRepair)],
            [sp for sp in plan.specs if isinstance(sp, GpuSlowdown)],
            [sp for sp in plan.specs if isinstance(sp, LinkDegradation)],
            [sp for sp in plan.specs if isinstance(sp, TransferLoss)],
        ]
        assert plan.first_failure() == GpuFailure(gpu=0, at=2.0)
        assert plan.bw_factor(0, 1, 1.0) == 0.5

    def test_validate_for_rejects_out_of_range(self):
        with pytest.raises(FaultError):
            FaultPlan([GpuFailure(gpu=4, at=1.0)]).validate_for(4)
        with pytest.raises(FaultError):
            FaultPlan([LinkDegradation(src=0, dst=5, at=0.0, bw_factor=0.5)]).validate_for(2)
        FaultPlan([GpuFailure(gpu=3, at=1.0)]).validate_for(4)  # ok

    def test_bw_factor_compounds_and_respects_time(self):
        plan = FaultPlan(
            [
                LinkDegradation(src=0, dst=1, at=1.0, bw_factor=0.5),
                LinkDegradation(src=0, dst=1, at=2.0, bw_factor=0.5),
            ]
        )
        assert plan.bw_factor(0, 1, 0.5) == 1.0
        assert plan.bw_factor(0, 1, 1.5) == 0.5
        assert plan.bw_factor(0, 1, 2.5) == 0.25
        assert plan.bw_factor(1, 0, 2.5) == 1.0  # directed

    def test_loss_is_deterministic_per_seed(self):
        plan_a = FaultPlan([TransferLoss(prob=0.5)], seed=42)
        plan_b = FaultPlan([TransferLoss(prob=0.5)], seed=42)
        verdicts_a = [plan_a.lost(f"m{i}", 1) is not None for i in range(50)]
        verdicts_b = [plan_b.lost(f"m{i}", 1) is not None for i in range(50)]
        assert verdicts_a == verdicts_b
        assert any(verdicts_a) and not all(verdicts_a)

    def test_tagged_loss_hits_first_attempt_only(self):
        plan = FaultPlan([TransferLoss(tags=("a->b",))])
        assert plan.lost("a->b", 1) is not None
        assert plan.lost("a->b", 2) is None
        assert plan.lost("x->y", 1) is None


class TestBackoffJitter:
    def test_default_backoff_is_pure_exponential(self):
        loss = TransferLoss(prob=0.1, backoff_ms=0.1)
        assert loss.backoff_delay(0, "a->b", 1) == pytest.approx(0.1)
        assert loss.backoff_delay(0, "a->b", 2) == pytest.approx(0.2)
        assert loss.backoff_delay(0, "a->b", 3) == pytest.approx(0.4)
        # seed and tag are irrelevant without jitter
        assert loss.backoff_delay(7, "x->y", 2) == pytest.approx(0.2)

    def test_jitter_stays_below_ceiling(self):
        loss = TransferLoss(prob=0.1, backoff_ms=0.1, jitter=True)
        for attempt in (1, 2, 3, 4):
            ceiling = 0.1 * 2 ** (attempt - 1)
            delay = loss.backoff_delay(42, "a->b", attempt)
            assert 0.0 <= delay < ceiling

    def test_jitter_is_deterministic_per_seed_tag_attempt(self):
        loss = TransferLoss(prob=0.1, backoff_ms=0.1, jitter=True)
        assert loss.backoff_delay(42, "a->b", 2) == loss.backoff_delay(42, "a->b", 2)
        # decorrelated across tags, attempts and seeds
        d = loss.backoff_delay(42, "a->b", 2)
        assert loss.backoff_delay(42, "c->d", 2) != d
        assert loss.backoff_delay(42, "a->b", 3) != d
        assert loss.backoff_delay(43, "a->b", 2) != d


class TestParsing:
    def test_parse_all_kinds(self):
        assert parse_fault("fail:1@5.0") == GpuFailure(gpu=1, at=5.0)
        assert parse_fault("slow:0@2x0.5") == GpuSlowdown(gpu=0, at=2.0, factor=0.5)
        assert parse_fault("link:0->1@3x0.25") == LinkDegradation(
            src=0, dst=1, at=3.0, bw_factor=0.25
        )
        assert parse_fault("loss:0.1") == TransferLoss(prob=0.1)

    def test_parse_loss_jitter_suffix(self):
        assert parse_fault("loss:0.1:jitter") == TransferLoss(prob=0.1, jitter=True)
        with pytest.raises(FaultError, match="jitter"):
            parse_fault("loss:0.1:chaos")

    def test_parse_rejects_garbage(self):
        for bad in ("nope:1@2", "fail:x@y", "slow:0@1", "link:0@1x0.5", ""):
            with pytest.raises(FaultError):
                parse_fault(bad)

    def test_from_strings_round_trip(self):
        plan = FaultPlan.from_strings(["fail:1@5.0", "loss:0.2"], seed=3)
        assert plan.seed == 3
        assert len(plan) == 2


class TestFabricFaults:
    def test_tagged_loss_retries_with_timeout_and_backoff(self):
        loss = TransferLoss(tags=("a->b",), timeout_ms=0.5, backoff_ms=0.1)
        fabric = SimFabric(2, NVLINK_BRIDGE, faults=FaultPlan([loss]))
        finish = fabric.post_send(0.0, 0, 1, duration=1.0, tag="a->b")
        # lost attempt: starts at 0, detected at 0.5, backoff 0.1,
        # retry starts at 0.6 and delivers at 1.6
        assert finish == pytest.approx(1.6)
        rec = fabric.records[0]
        assert rec.attempts == 2
        assert rec.start_time == pytest.approx(0.6)
        assert sum(r.attempts - 1 for r in fabric.records) == 1

    def test_exponential_backoff_across_attempts(self):
        # every attempt up to max_retries is lost -> FaultError
        loss = TransferLoss(prob=0.999, max_retries=3, timeout_ms=0.5, backoff_ms=0.1)
        fabric = SimFabric(2, NVLINK_BRIDGE, faults=FaultPlan([loss], seed=0))
        with pytest.raises(FaultError):
            fabric.post_send(0.0, 0, 1, duration=1.0, tag="doomed")

    def test_lost_attempt_occupies_channel(self):
        loss = TransferLoss(tags=("a->b",), timeout_ms=1.0, backoff_ms=0.5)
        fabric = SimFabric(2, NVLINK_BRIDGE, faults=FaultPlan([loss]))
        fabric.post_send(0.0, 0, 1, duration=1.0, tag="a->b")  # delivers at 2.5
        # an unrelated message on the same channel queues behind it
        finish = fabric.post_send(0.0, 0, 1, duration=1.0, tag="c->d")
        assert finish == pytest.approx(3.5)

    def test_link_degradation_scales_duration_priced_messages(self):
        plan = FaultPlan([LinkDegradation(src=0, dst=1, at=1.0, bw_factor=0.5)])
        fabric = SimFabric(2, NVLINK_BRIDGE, faults=plan)
        assert fabric.post_send(0.0, 0, 1, duration=0.5, tag="early") == pytest.approx(0.5)
        assert fabric.post_send(2.0, 0, 1, duration=0.5, tag="late") == pytest.approx(3.0)

    def test_empty_plan_identical_to_no_plan(self):
        a = SimFabric(2, NVLINK_BRIDGE, faults=FaultPlan())
        b = SimFabric(2, NVLINK_BRIDGE)
        for t in (0.0, 0.3, 1.7):
            assert a.post_send(t, 0, 1, duration=0.4, tag="m") == b.post_send(
                t, 0, 1, duration=0.4, tag="m"
            )
        assert a.records == b.records


class TestRepairs:
    """``repair:G@T`` specs: parsing, accessors, and tail semantics."""

    def test_parse_repair(self):
        from repro.substrate import GpuRepair

        assert parse_fault("repair:2@7.5") == GpuRepair(gpu=2, at=7.5)
        with pytest.raises(FaultError):
            parse_fault("repair:x@1")
        with pytest.raises(FaultError):
            GpuRepair(gpu=-1, at=0.0)
        with pytest.raises(FaultError):
            GpuRepair(gpu=0, at=-1.0)

    def test_repairs_accessor_sorted_by_time(self):
        plan = FaultPlan.from_strings(
            ["repair:1@9", "fail:1@2", "repair:0@4"], seed=0
        )
        assert [(r.gpu, r.at) for r in plan.repairs()] == [(0, 4.0), (1, 9.0)]
        assert len(plan.failures()) == 1

    def test_validate_for_covers_repairs(self):
        plan = FaultPlan.from_strings(["repair:5@1"])
        with pytest.raises(FaultError, match="GPU 5"):
            plan.validate_for(4)
        plan.validate_for(6)  # ok

    def test_resume_after_drops_repairs(self):
        # recovery is pool-level bookkeeping: a tail run's GPU set is
        # fixed, so repairs never survive re-anchoring
        plan = FaultPlan.from_strings(
            ["fail:1@10", "repair:0@1", "repair:1@20"], seed=5
        )
        tail = plan.resume_after(5.0)
        assert tail.repairs() == []
        assert [f.at for f in tail.failures()] == [5.0]


class TestBackoffCap:
    def test_backoff_doublings_are_capped(self):
        from repro.substrate import BACKOFF_CAP_DOUBLINGS

        loss = TransferLoss(prob=0.1, backoff_ms=1.0)
        ceiling = 2.0**BACKOFF_CAP_DOUBLINGS
        assert loss.backoff_delay(0, "a->b", BACKOFF_CAP_DOUBLINGS + 1) == ceiling
        # pathological attempt counts no longer overflow the float
        assert loss.backoff_delay(0, "a->b", 10_000) == ceiling
