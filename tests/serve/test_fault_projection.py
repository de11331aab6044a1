"""The pool fault plan projected onto one lease (``ServeSimulator._query_plan``).

Whether a dispatch may replay its plan's fault-free trace is decided on
this projection, so its index mapping, clock re-anchoring and seeding
are pinned here.
"""

import pytest

from repro.serve import ServeConfig, TenantSpec
from repro.serve.simulator import ServeSimulator, _query_seed
from repro.substrate import (
    GpuFailure,
    GpuSlowdown,
    LinkDegradation,
    TransferLoss,
)


def _sim(*faults, seed=5):
    cfg = ServeConfig(
        tenants=(TenantSpec(name="t", model="tiny", arrivals_ms=(1.0,)),),
        num_gpus=4,
        seed=seed,
        faults=faults,
    )
    return ServeSimulator(cfg)


def test_pool_gpus_map_to_lease_slots():
    plan = _sim("fail:3@50", "fail:1@60", "fail:2@70")._query_plan(10.0, (1, 3), "q", 1)
    assert plan.failures() == [GpuFailure(gpu=1, at=40.0), GpuFailure(gpu=0, at=50.0)]


def test_failures_before_now_drop_and_at_now_stay():
    sim = _sim("fail:0@49.5", "fail:1@50", "fail:2@80")
    plan = sim._query_plan(50.0, (0, 1, 2), "q", 1)
    assert plan.failures() == [GpuFailure(gpu=1, at=0.0), GpuFailure(gpu=2, at=30.0)]


def test_slowdown_and_link_times_clamp_at_zero():
    sim = _sim("slow:0@10x0.5", "slow:1@90x0.25", "link:0->1@20x0.5", "link:1->0@70x0.8")
    plan = sim._query_plan(50.0, (0, 1), "q", 1)
    assert plan.slowdowns() == [
        GpuSlowdown(gpu=0, at=0.0, factor=0.5),
        GpuSlowdown(gpu=1, at=40.0, factor=0.25),
    ]
    assert plan.degradations() == [
        LinkDegradation(src=0, dst=1, at=0.0, bw_factor=0.5),
        LinkDegradation(src=1, dst=0, at=20.0, bw_factor=0.8),
    ]


def test_link_degradation_needs_both_ends_in_the_lease():
    sim = _sim("link:0->2@5x0.5", "link:2->3@5x0.5", "link:3->2@5x0.5")
    assert sim._query_plan(0.0, (0, 1), "q", 1) is None
    plan = sim._query_plan(0.0, (2, 3), "q", 1)
    assert plan.degradations() == [
        LinkDegradation(src=0, dst=1, at=5.0, bw_factor=0.5),
        LinkDegradation(src=1, dst=0, at=5.0, bw_factor=0.5),
    ]


def test_losses_are_kept_and_seeded_per_tag_and_attempt():
    sim = _sim("loss:0.2:jitter", seed=5)
    plan = sim._query_plan(30.0, (2,), "q7", 2)
    assert plan.losses() == [TransferLoss(prob=0.2, jitter=True)]
    assert plan.seed == _query_seed(5, "q7", 2)
    seeds = {
        sim._query_plan(30.0, (2,), tag, attempt).seed
        for tag in ("q7", "q7/e1", "q8")
        for attempt in (1, 2)
    }
    assert len(seeds) == 6
    # the projection time and lease do not enter the seed
    assert sim._query_plan(0.0, (0, 1), "q7", 2).seed == plan.seed


@pytest.mark.parametrize(
    "faults",
    [
        (),
        ("fail:2@80", "slow:3@0x0.5", "link:2->3@0x0.5"),  # all off the lease
        ("fail:0@10", "fail:1@49.999"),  # all fired before now
        ("repair:0@60", "repair:1@70"),  # recovery is pool-level only
    ],
)
def test_nothing_projected_is_none(faults):
    assert _sim(*faults)._query_plan(50.0, (0, 1), "q", 1) is None
