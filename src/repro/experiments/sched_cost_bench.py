"""Scheduling-cost micro-benchmark behind the Fig. 14 regression gate.

The incremental engine (:mod:`repro.core.fasteval`) claims the
schedulers themselves got faster.  This module makes that claim
checkable on any machine:

* :func:`measure` times the pure algorithm wall time (no profiling
  bill, unlike :mod:`.fig14_scheduling_cost`) of one scheduler over the
  largest Fig. 14 workloads, twice — ``fast`` (the schedulers as
  shipped) and ``reference`` (inside a caller-supplied context that
  swaps in the from-scratch reference components; both legs price
  stages through the profile's ``stage_time`` memo);
* :func:`calibration_seconds` times a fixed pure-Python workload so a
  committed baseline can be rescaled to the measuring machine's speed;
* ``scripts/check_sched_regression.py`` compares the best of
  :func:`measure` runs in a few fresh processes against the committed
  ``benchmarks/results/BENCH_scheduling_cost.json`` and fails CI on a
  >25 % regression of the (calibration-normalized) fast time, or if
  the fast/reference speedup falls below the floor.

Every time reported is the best of its samples.  On a shared machine
other tenants only ever slow a sample down, by up to 2x and for
seconds at a time, so a median still moves with the load while the
minimum settles once some sample ran undisturbed.  The fast leg is
cheap, so it takes :data:`FAST_ROUNDS_PER_REPEAT` times as many
samples as the reference leg, cycling through the workloads with a
calibration sample after each run: both sides of the normalization
ratio are then drawn from the same stretch of wall time.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from typing import Callable

from ..core.api import schedule_graph
from .realmodels import MODEL_BUILDERS, default_profiler

__all__ = [
    "FAST_ROUNDS_PER_REPEAT",
    "WORKLOADS",
    "calibration_seconds",
    "measure",
]

# the largest Fig. 14 inputs of the two headline models: where the
# quadratic-by-reconstruction cost used to hurt the most
WORKLOADS: tuple[tuple[str, int], ...] = (("inception_v3", 1024), ("nasnet", 1024))

#: fast-leg rounds per ``repeats``: each round times every workload once
FAST_ROUNDS_PER_REPEAT = 3


def calibration_seconds(scale: int = 120_000) -> float:
    """Wall time of a fixed, allocation-heavy pure-Python workload.

    The schedulers are interpreter-bound, so this tracks how fast the
    measuring machine runs them; dividing a committed baseline's times
    by the ratio of calibrations transfers the baseline across
    machines (coarsely — which is why the gate's threshold is 25 %).
    """
    t0 = time.perf_counter()
    acc = 0.0
    d: dict[tuple[int, int], float] = {}
    for i in range(scale):
        key = (i & 1023, i % 37)
        prev = d.get(key)
        acc += prev if prev is not None else float(i)
        d[key] = acc % 1e9
    return time.perf_counter() - t0


def _wall_seconds(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(
    algorithm: str = "hios-lp",
    repeats: int = 3,
    workloads: tuple[tuple[str, int], ...] = WORKLOADS,
    *,
    reference: Callable[[], AbstractContextManager[object]],
) -> dict[str, object]:
    """Best-of-N scheduling wall time per workload, shipped and reference.

    Returns a JSON-ready dict::

        {"algorithm": ..., "repeats": ..., "calibration_s": ...,
         "workloads": {"nasnet@1024": {"fast_min_s": ...,
                                       "reference_min_s": ...}, ...}}

    The fast leg takes ``FAST_ROUNDS_PER_REPEAT * repeats`` samples per
    workload and the reference leg ``repeats``; ``calibration_s`` is
    the best of the calibration samples taken between fast runs.
    ``reference`` returns the context manager the reference leg runs in
    (``tests.oracles.reference_components`` swaps the from-scratch
    components in behind the schedulers).  Both legs run the *same*
    algorithm to the same schedule (the differential tests assert
    bit-identity); only the evaluation engine differs, so their ratio
    is a machine-independent speedup.
    """
    profiler = default_profiler()
    profiles = {
        f"{model}@{size}": profiler.profile(MODEL_BUILDERS[model](size))
        for model, size in workloads
    }
    fast: dict[str, list[float]] = {name: [] for name in profiles}
    calibration: list[float] = []
    for _ in range(FAST_ROUNDS_PER_REPEAT * repeats):
        for name, profile in profiles.items():
            fast[name].append(_wall_seconds(lambda p=profile: schedule_graph(p, algorithm)))
            calibration.append(calibration_seconds())
    out: dict[str, dict[str, float]] = {}
    for name, profile in profiles.items():
        with reference():
            ref = [
                _wall_seconds(lambda p=profile: schedule_graph(p, algorithm))
                for _ in range(repeats)
            ]
        out[name] = {"fast_min_s": min(fast[name]), "reference_min_s": min(ref)}
    return {
        "algorithm": algorithm,
        "repeats": repeats,
        "calibration_s": min(calibration),
        "workloads": out,
    }
