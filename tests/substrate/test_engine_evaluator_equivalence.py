"""Cross-validation: the discrete-event engine and the analytic
evaluator implement the *same* timing semantics for singleton-stage
schedules when launch overhead is zero.

With one operator per stage, no concurrency, no launch costs and an
idealized (non-serializing) fabric, every semantic the two share —
per-GPU stage sequencing, cross-GPU transfer delays, and
sender-blocking serialized sends — must produce identical makespans.
Random graphs and random assignments probe the full space; a
disagreement means one of the two implementations drifted.

Outside that corner the gap is two-sided.  A profiler's engine adds
launch overhead, stream contention and per-direction channel FIFOs
the evaluator does not model, yet it can measure *less* than the
prediction as well as more; the last test pins one case on each side.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    build_singleton_schedule,
    evaluate_latency,
    priority_order,
    schedule_graph,
)
from repro.costmodel import CostProfile
from repro.models import inception_v3
from repro.models.randomdag import random_layered_dag
from repro.substrate import EngineConfig, MultiGpuEngine, PlatformProfiler, dual_a40


def _engine(send_blocking: bool) -> MultiGpuEngine:
    return MultiGpuEngine(
        EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.0,
            send_blocking=send_blocking,
            fabric_serializes=False,
        )
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_gpus=st.integers(1, 4),
    num_ops=st.integers(5, 40),
    send_blocking=st.booleans(),
)
def test_engine_matches_evaluator_on_singleton_schedules(
    seed, num_gpus, num_ops, send_blocking
):
    graph = random_layered_dag(
        num_ops=num_ops, num_layers=min(5, num_ops), seed=seed
    )
    order = priority_order(graph)
    # pseudo-random but seed-deterministic assignment
    assignment = {v: (i * 7 + seed) % num_gpus for i, v in enumerate(order)}
    schedule = build_singleton_schedule(assignment, order, num_gpus)

    profile = CostProfile(graph=graph, num_gpus=num_gpus, send_blocking=send_blocking)
    analytic = evaluate_latency(profile, schedule, validate=True)
    measured = _engine(send_blocking).run(graph, schedule).latency
    assert measured == pytest.approx(analytic, rel=1e-9, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_hios_lp_schedule_reproduced_by_engine(seed):
    """The latency HIOS-LP optimized (inter-GPU phase, singleton
    stages) is exactly what the idealized engine measures."""
    graph = random_layered_dag(num_ops=30, num_layers=5, seed=seed)
    profile = CostProfile(graph=graph, num_gpus=3)
    res = schedule_graph(profile, "inter-lp")
    measured = _engine(send_blocking=True).run(graph, res.schedule).latency
    assert measured == pytest.approx(res.latency, rel=1e-9, abs=1e-9)


def _measured_gap(num_gpus: int, algorithm: str, **kwargs: object) -> float:
    """(measured - predicted) / predicted for inception_v3@299 on dual A40s."""
    profiler = PlatformProfiler(dual_a40(num_gpus))
    profile = profiler.profile(inception_v3(299))
    res = schedule_graph(profile, algorithm, **kwargs)
    measured = profiler.engine().run(profile.graph, res.schedule).latency
    return (measured - res.latency) / res.latency


def test_default_engine_gap_is_two_sided():
    """A one-sided bound on measured vs. predicted latency is wrong:
    hios-mr on 2 GPUs measures about 1.7 % under its prediction, and
    ios on 1 GPU about 12 % over."""
    assert _measured_gap(2, "hios-mr", window=3) < -0.01
    assert _measured_gap(1, "ios") > 0.10
