"""Latency under injected faults, with and without schedule repair.

Not a paper figure — this quantifies the resilience layer: on the
Section V random-DAG workload, one of four GPUs fail-stops mid-run.
For each scheduler we report

* ``fault-free`` — the undisturbed engine latency;
* ``repair`` — fail-stop at 40 % of the fault-free latency, then
  :func:`repro.core.repair.run_with_repair` re-schedules the unfinished
  subgraph onto the three survivors with the *same* algorithm
  (degraded-mode HIOS);
* ``seq-fallback`` — the naive recovery baseline: the unfinished
  subgraph re-runs sequentially on one surviving GPU.

The headline claim (mirrored by the acceptance test in
``tests/core/test_repair.py``): degraded-mode HIOS-LP repair beats the
sequential fallback by a wide margin, so the scheduler machinery keeps
paying off after a device loss.
"""

import numpy as np

from conftest import run_once
from repro.core import schedule_graph
from repro.core.repair import run_with_repair
from repro.experiments import default_config
from repro.experiments.reporting import SeriesResult
from repro.models import random_dag_profile
from repro.substrate import EngineConfig, FaultPlan, GpuFailure, MultiGpuEngine

ALGS = ("sequential", "ios", "hios-mr", "hios-lp")
FAIL_GPU = 1
FAIL_FRACTION = 0.4


def _engine_config(**kwargs) -> EngineConfig:
    return EngineConfig(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.06,
        **kwargs,
    )


def _scenario_latencies(seed: int, alg: str) -> tuple[float, float, float]:
    profile = random_dag_profile(seed=seed, num_ops=80, num_layers=8, num_gpus=4)
    res = schedule_graph(profile, alg)
    clean = MultiGpuEngine(_engine_config()).run(profile.graph, res.schedule)

    plan = FaultPlan([GpuFailure(gpu=FAIL_GPU, at=clean.latency * FAIL_FRACTION)], seed=seed)
    faulted_cfg = _engine_config(faults=plan)
    repaired, _ = run_with_repair(
        profile, res.schedule, config=faulted_cfg, algorithm=alg
    )
    fallback, _ = run_with_repair(
        profile, res.schedule, config=faulted_cfg, algorithm="sequential"
    )
    return clean.latency, repaired.latency, fallback.latency


def test_fault_resilience(benchmark, record_series):
    cfg = default_config()
    seeds = range(cfg.instances)

    def run():
        series = {"fault-free": [], "repair": [], "seq-fallback": []}
        for alg in ALGS:
            rows = [_scenario_latencies(s, alg) for s in seeds]
            clean, repaired, fallback = (float(np.mean(c)) for c in zip(*rows))
            series["fault-free"].append(clean)
            series["repair"].append(repaired)
            series["seq-fallback"].append(fallback)
        return SeriesResult(
            figure="fault_resilience",
            title="latency under a mid-run GPU failure (80 ops, 4 GPUs, fail 1)",
            x_label="algorithm",
            y_label="latency (ms)",
            x=list(ALGS),
            series=series,
            notes=(
                f"GPU {FAIL_GPU} fail-stops at {FAIL_FRACTION:.0%} of the "
                "fault-free latency; repair re-schedules the unfinished "
                "subgraph on the 3 survivors with the same algorithm, "
                "seq-fallback re-runs it sequentially on one survivor."
            ),
        )

    result = run_once(benchmark, run)
    record_series(result)
    # degraded-mode scheduling must beat the naive sequential fallback
    for alg in ("hios-lp", "hios-mr"):
        assert result.value("repair", alg) < result.value("seq-fallback", alg)
