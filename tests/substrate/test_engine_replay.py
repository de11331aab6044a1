"""``replays_fault_free``: when a run under a fault plan is the fault-free run.

The predicate is exact for failure-only plans: it holds exactly when the
faulted run's trace document equals the fault-free one, including
failures a hair either side of the engine's event-pop tolerance
``_EPS`` past the fault-free latency.  Any slowdown, link degradation
or transfer loss makes it false.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import schedule_graph
from repro.models.randomdag import random_dag_profile
from repro.serve.zoo import zoo_profile
from repro.substrate import (
    EngineConfig,
    FaultPlan,
    GpuFailure,
    GpuRepair,
    GpuSlowdown,
    LinkDegradation,
    MultiGpuEngine,
    TransferLoss,
)
from repro.substrate.engine import _EPS, replays_fault_free

#: the serving simulator's engine, and the engine's defaults
CONFIGS = {
    "serve": EngineConfig(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.06,
    ),
    "default": EngineConfig(),
}

#: failure times relative to the fault-free latency (ms), straddling _EPS
OFFSETS = (
    -1.0,
    -_EPS,
    0.0,
    0.5 * _EPS,
    _EPS,
    1.0000001 * _EPS,
    1.5 * _EPS,
    2 * _EPS,
    1e-6,
    5.0,
)


def _run(cfg, graph, schedule, plan):
    return MultiGpuEngine(replace(cfg, faults=plan)).run(graph, schedule)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("model", ["chain12", "wide24", "deep40"])
@pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
def test_predicate_is_exact_for_single_failures(config, model, num_gpus):
    cfg = CONFIGS[config]
    profile = zoo_profile(model, num_gpus)
    schedule = schedule_graph(profile, "hios-lp", window=3).schedule
    clean = _run(cfg, profile.graph, schedule, None)
    want = clean.to_dict()
    for gpu in range(num_gpus):
        for offset in OFFSETS:
            at = clean.latency + offset
            plan = FaultPlan([GpuFailure(gpu=gpu, at=at)])
            got = _run(cfg, profile.graph, schedule, plan)
            same = got.to_dict() == want
            assert replays_fault_free(plan, clean.latency) == same, (gpu, offset)
            assert same == (got.failure is None), (gpu, offset)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_gpus=st.integers(1, 4),
    failures=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(OFFSETS)), min_size=1, max_size=3
    ),
    repairs=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 100.0)), max_size=2),
)
def test_predicate_is_exact_for_failure_only_plans(seed, num_gpus, failures, repairs):
    profile = random_dag_profile(seed=seed, num_gpus=num_gpus, num_ops=20, num_layers=4)
    graph = profile.graph
    schedule = schedule_graph(profile, "hios-lp").schedule
    cfg = CONFIGS["default"]
    clean = _run(cfg, graph, schedule, None)
    specs = [
        GpuFailure(gpu=g % num_gpus, at=max(0.0, clean.latency + off)) for g, off in failures
    ]
    specs += [GpuRepair(gpu=g % num_gpus, at=at) for g, at in repairs]
    plan = FaultPlan(specs, seed=seed)
    got = _run(cfg, graph, schedule, plan)
    assert replays_fault_free(plan, clean.latency) == (got.to_dict() == clean.to_dict())


def test_empty_plans_and_repairs_always_replay():
    assert replays_fault_free(None, 10.0)
    assert replays_fault_free(FaultPlan(), 10.0)
    assert replays_fault_free(FaultPlan([GpuRepair(gpu=0, at=1.0)]), 10.0)
    assert replays_fault_free(FaultPlan([GpuFailure(gpu=0, at=11.0)]), 10.0)
    assert not replays_fault_free(FaultPlan([GpuFailure(gpu=0, at=10.0)]), 10.0)


@settings(max_examples=100, deadline=None)
@given(
    failures=st.lists(st.builds(GpuFailure, gpu=st.integers(0, 3), at=st.floats(0.0, 100.0))),
    low=st.floats(0.0, 100.0),
    high=st.floats(0.0, 100.0),
)
def test_predicate_only_tightens_as_latency_grows(failures, low, high):
    low, high = sorted((low, high))
    plan = FaultPlan(failures)
    if replays_fault_free(plan, high):
        assert replays_fault_free(plan, low)


_other_specs = st.one_of(
    st.builds(
        GpuSlowdown,
        gpu=st.integers(0, 3),
        at=st.floats(0.0, 1e6),
        factor=st.floats(0.1, 10.0),
    ),
    st.builds(
        LinkDegradation,
        src=st.just(0),
        dst=st.integers(1, 3),
        at=st.floats(0.0, 1e6),
        bw_factor=st.floats(0.1, 1.0),
    ),
    st.builds(TransferLoss, prob=st.floats(0.01, 0.9)),
    st.builds(TransferLoss, tags=st.just(("a->b",))),
)


@settings(max_examples=100, deadline=None)
@given(
    spec=_other_specs,
    failures=st.lists(st.builds(GpuFailure, gpu=st.integers(0, 3), at=st.floats(0.0, 1e6))),
    latency=st.floats(0.0, 1e3),
)
def test_slowdowns_degradations_and_losses_never_replay(spec, failures, latency):
    plan = FaultPlan([*failures, spec])
    assert not replays_fault_free(plan, latency)
