"""Seeded end-to-end serving scenarios (the CI smoke suite).

Three canonical situations, each a fixed :class:`ServeConfig` so the
resulting :class:`~repro.serve.report.ServeReport` is bit-identical on
every machine — CI replays them and compares the counters exactly
against ``benchmarks/results/BENCH_serving.json``:

``steady-state``
    Two tenants at comfortable load on a healthy pool.  Nothing is
    shed, nothing fails; the baseline the other scenarios degrade from.

``burst-overload``
    A scripted burst lands on top of the baseline load.  The queue
    overflows (admission sheds), the dispatcher switches to degraded
    leases and the cheap algorithm, and latewise-doomed requests are
    shed at dispatch.

``gpu-loss``
    Two pool GPUs fail-stop mid-run while queries are in flight.
    In-lease failures trigger cascading repair; a fully-lost lease
    displaces its query, which is re-admitted and completes — the
    scenario's invariant is that *every admitted query still
    completes* (``failed == 0``), at the price of latency and repairs.

``gpu-loss-recovery``
    A rolling outage takes three of four GPUs down mid-burst, then
    staged ``repair:G@T`` events return them to service.  The full
    lifecycle fires: cascading repair on the first in-lease failure,
    displacement and re-admission when leases are wiped, same-model
    batching while the backlog drains on the lone survivor, an elastic
    shrink under overload and an elastic grow onto the first revived
    GPU.  Invariants: every repaired GPU serves again, ``failed == 0``
    and ``deadline_misses == 0`` — post-repair goodput returns to the
    pre-failure steady state.
"""

from __future__ import annotations

from typing import Callable

from .config import ServeConfig, TenantSpec
from .simulator import ServeResult, serve

__all__ = ["SCENARIOS", "run_scenario", "scenario_config"]


def _steady_state() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec(name="search", model="chain12", rate_qps=25.0, deadline_ms=120.0),
            TenantSpec(
                name="feed", model="wide24", rate_qps=12.0, priority=1, deadline_ms=200.0
            ),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=800.0,
        seed=7,
    )


def _burst_overload() -> ServeConfig:
    burst = tuple(300.0 + 2.0 * i for i in range(24))
    return ServeConfig(
        tenants=(
            TenantSpec(name="search", model="chain12", rate_qps=25.0, deadline_ms=120.0),
            TenantSpec(
                name="feed", model="wide24", rate_qps=12.0, priority=1, deadline_ms=200.0
            ),
            TenantSpec(
                name="batch",
                model="deep40",
                arrivals_ms=burst,
                priority=-1,
                deadline_ms=220.0,
            ),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=800.0,
        seed=7,
        queue_capacity=10,
        overload_queue=4,
        degraded_gpus=1,
        degraded_algorithm="sequential",
    )


def _gpu_loss() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec(name="search", model="chain12", rate_qps=20.0, deadline_ms=400.0),
            TenantSpec(
                name="feed", model="wide24", rate_qps=10.0, priority=1, deadline_ms=600.0
            ),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=600.0,
        seed=11,
        # two fail-stops timed to strike one in-flight 2-GPU lease:
        # the first triggers cascading repair onto the lease's other
        # GPU, the second wipes the lease (displacement + re-admission)
        faults=("fail:1@178", "fail:0@184"),
        max_retries=3,
        retry_backoff_ms=4.0,
    )


def _gpu_loss_recovery() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec(name="search", model="chain12", rate_qps=15.0, deadline_ms=500.0),
            TenantSpec(
                name="batch",
                model="deep40",
                arrivals_ms=tuple(140.0 + 4.0 * i for i in range(8)),
                priority=-1,
                deadline_ms=900.0,
            ),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=900.0,
        seed=13,
        queue_capacity=16,
        overload_queue=4,
        degraded_gpus=1,
        degraded_algorithm="sequential",
        max_batch=3,
        elastic=True,
        # rolling outage: the first failure strikes a 2-GPU lease
        # (cascading repair), the second wipes it (displacement), the
        # third leaves one survivor; staged repairs then heal the pool
        # while the backlog is still draining, so the elastic grow
        # lands on a revived GPU mid-query
        faults=(
            "fail:3@150",
            "fail:2@160",
            "fail:1@170",
            "repair:3@280",
            "repair:2@320",
            "repair:1@360",
        ),
        max_retries=3,
        retry_backoff_ms=4.0,
    )


#: name -> (one-line description, config builder)
SCENARIOS: dict[str, tuple[str, Callable[[], ServeConfig]]] = {
    "steady-state": ("healthy pool at comfortable load", _steady_state),
    "burst-overload": ("scripted burst: shedding + degradation", _burst_overload),
    "gpu-loss": ("two fail-stops under load: repair + displacement", _gpu_loss),
    "gpu-loss-recovery": (
        "rolling outage healed by staged repairs: batching + elastic leases",
        _gpu_loss_recovery,
    ),
}


def scenario_config(name: str) -> ServeConfig:
    """The fixed config of a named scenario."""
    try:
        _, builder = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return builder()


def run_scenario(name: str) -> ServeResult:
    """Run a named scenario; the report is bit-stable run over run."""
    return serve(scenario_config(name))
