"""Experiment parameterisation.

Every figure driver accepts an :class:`ExperimentConfig`.  The default
is a *fast* configuration (3 random instances per data point, trimmed
sweeps) so the whole benchmark suite runs in minutes; set the
environment variable ``REPRO_FULL=1`` (or build the config with
``fast=False``) for the paper's full setting of 30 instances per point.

Sweep execution knobs (PR: parallel sweep engine) are also part of the
config so benchmarks and the CLI share one mechanism:

* ``jobs`` — worker processes for the sweep engine (``1`` = the
  historical serial path, ``0`` = one per CPU); env ``REPRO_JOBS``.
* ``use_cache`` / ``cache_dir`` — content-addressed result cache
  (:mod:`repro.sweep.cache`); env ``REPRO_CACHE=1`` and
  ``REPRO_CACHE_DIR``.
* ``progress`` — line-oriented progress reporting on stderr; env
  ``REPRO_PROGRESS=1``.
* ``trace_dir`` — when set, engine-measured sweeps replay each unit's
  execution and export a Chrome/Perfetto trace per unit into this
  directory (see :mod:`repro.obs`); env ``REPRO_TRACE_DIR``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["ExperimentConfig", "default_config", "ALGORITHM_ORDER"]

# canonical plotting/report order (paper legend order)
ALGORITHM_ORDER = ["sequential", "ios", "hios-mr", "hios-lp", "inter-mr", "inter-lp"]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip() not in ("", "0", "false")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment knobs.

    ``instances`` random DAGs are generated per simulation data point
    (seeds ``seed0 .. seed0 + instances - 1``) and their latencies
    averaged, as in the paper ("each data point denotes the average of
    30 randomly generated instances").
    """

    fast: bool = True
    instances: int = 3
    seed0: int = 0
    num_gpus: int = 4
    window: int = 3
    jobs: int = 1
    use_cache: bool = False
    cache_dir: str | None = None
    progress: bool = False
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("need at least one instance per data point")
        if self.num_gpus < 1:
            raise ValueError("need at least one GPU")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one per CPU)")

    @classmethod
    def full(cls) -> "ExperimentConfig":
        return cls(fast=False, instances=30)

    def with_(self, **kwargs: object) -> "ExperimentConfig":
        return replace(self, **kwargs)  # type: ignore[arg-type]


def default_config() -> ExperimentConfig:
    """Fast config unless ``REPRO_FULL`` is set in the environment.

    Sweep-engine knobs come from ``REPRO_JOBS`` (worker count),
    ``REPRO_CACHE`` (enable the result cache) and ``REPRO_PROGRESS``
    (progress lines on stderr) so the benchmark harness picks them up
    without code changes; the cache directory itself resolves via
    ``REPRO_CACHE_DIR`` inside :mod:`repro.sweep.cache`.
    """
    cfg = ExperimentConfig.full() if _env_flag("REPRO_FULL") else ExperimentConfig()
    jobs = os.environ.get("REPRO_JOBS", "").strip()
    if jobs:
        cfg = cfg.with_(jobs=int(jobs))
    if _env_flag("REPRO_CACHE"):
        cfg = cfg.with_(use_cache=True)
    if _env_flag("REPRO_PROGRESS"):
        cfg = cfg.with_(progress=True)
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "").strip()
    if trace_dir:
        cfg = cfg.with_(trace_dir=trace_dir)
    return cfg
