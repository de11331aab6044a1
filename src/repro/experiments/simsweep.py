"""Shared machinery for the Section V random-DAG sweeps (Figs. 7-11).

Each data point averages the scheduled latency of ``config.instances``
random DAG instances.  Sweeps decompose into pure
:class:`~repro.sweep.units.WorkUnit` values — one per
``(x, instance, algorithm)`` — and run through the
:mod:`repro.sweep` engine: identical units (e.g. the single-GPU
baselines of a GPU-count sweep, which canonicalize to the same cache
key) collapse before dispatch, cached results are reused, and the rest
fans out over ``config.jobs`` worker processes.  ``jobs=1`` evaluates
units inline in input order — bit-identical to the historical serial
triple loop.

Seed contract
-------------
Instance ``i`` of *every* data point uses seed ``config.seed0 + i`` —
for every x value, every algorithm and every dispatch order.  Seeds
are derived from the instance index when the unit is *built* (never
from iteration state), so serial, parallel and cache-warm runs provably
see identical workloads and produce identical series.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..sweep import (
    RandomDagSpec,
    ResultCache,
    SweepProgress,
    SweepStats,
    WorkUnit,
    run_units,
)
from .config import ALGORITHM_ORDER, ExperimentConfig, default_config
from .reporting import SeriesResult

__all__ = ["sweep_random_dags", "dispatch_units", "SIM_ALGORITHMS"]

SIM_ALGORITHMS = tuple(ALGORITHM_ORDER)


def _schedule_kwargs(config: ExperimentConfig, algorithm: str) -> dict[str, object]:
    if algorithm in ("hios-lp", "hios-mr"):
        return {"window": config.window}
    return {}


def dispatch_units(
    cfg: ExperimentConfig,
    figure: str,
    units: Sequence[WorkUnit],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    progress: SweepProgress | None = None,
) -> tuple[list[dict[str, float]], SweepStats]:
    """Run ``units`` with jobs/cache/progress resolved from ``cfg``.

    Explicit arguments win over the config fields; shared by the
    random-DAG and real-model sweep helpers.
    """
    if jobs is None:
        jobs = cfg.jobs
    if cache is None and cfg.use_cache:
        cache = ResultCache(cfg.cache_dir)
    if progress is None:
        progress = SweepProgress(figure, len(units), enabled=cfg.progress)
    return run_units(units, jobs=jobs, cache=cache, progress=progress)


def sweep_random_dags(
    figure: str,
    title: str,
    x_label: str,
    x_values: Sequence[object],
    spec_factory: Callable[[object, int], RandomDagSpec],
    config: ExperimentConfig | None = None,
    algorithms: Sequence[str] = SIM_ALGORITHMS,
    notes: str = "",
    jobs: int | None = None,
    cache: ResultCache | None = None,
    progress: SweepProgress | None = None,
) -> SeriesResult:
    """Run ``algorithms`` over ``x_values``; average over instances.

    ``spec_factory(x, seed)`` returns the picklable
    :class:`RandomDagSpec` of one instance, which the parallel engine
    and the result cache require.  Single-GPU baselines are computed
    once across x values wherever the sweep allows it: their cache keys
    are invariant under the multi-GPU-only spec fields, so the engine
    dedups them.

    Seeds follow the module-level contract: instance ``i`` uses
    ``config.seed0 + i``, independent of x, algorithm and dispatch
    order.
    """
    cfg = config or default_config()
    units: list[WorkUnit] = []
    index: dict[tuple[int, int, str], int] = {}
    for xi, x in enumerate(x_values):
        for i in range(cfg.instances):
            spec = spec_factory(x, cfg.seed0 + i)  # the seed contract
            for alg in algorithms:
                index[(xi, i, alg)] = len(units)
                units.append(
                    WorkUnit(
                        figure=figure,
                        x=x,
                        instance=i,
                        algorithm=alg,
                        spec=spec,
                        schedule_kwargs=tuple(
                            sorted(_schedule_kwargs(cfg, alg).items())
                        ),
                        kind="latency",
                    )
                )
    payloads, stats = dispatch_units(cfg, figure, units, jobs, cache, progress)

    series: dict[str, list[float]] = {a: [] for a in algorithms}
    stds: dict[str, list[float]] = {a: [] for a in algorithms}
    for xi in range(len(x_values)):
        for alg in algorithms:
            vals = np.asarray(
                [
                    payloads[index[(xi, i, alg)]]["latency"]
                    for i in range(cfg.instances)
                ]
            )
            series[alg].append(float(vals.mean()))
            stds[alg].append(float(vals.std(ddof=0)))

    return SeriesResult(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label="inference latency (ms)",
        x=list(x_values),
        series=series,
        notes=notes
        or f"mean of {cfg.instances} random instances per point "
        f"({'fast' if cfg.fast else 'full'} config)",
        extras={"std": stds, "sweep": stats.to_dict()},
    )

