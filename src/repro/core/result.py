"""Common result type returned by every scheduler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .schedule import Schedule

__all__ = ["ScheduleResult"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduling run.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name ("hios-lp", "ios", ...).
    schedule:
        The produced schedule ``Q``.
    latency:
        Predicted end-to-end latency (ms) under the cost profile's
        analytic evaluator — the objective value the scheduler
        optimized.  Engine-measured latency is reported separately by
        the experiment drivers.
    scheduling_time:
        Wall-clock seconds the scheduler itself took (the paper's
        "time cost of scheduling optimization", Fig. 14).
    stats:
        Algorithm-specific counters (paths extracted, DP states, ...).
        Schedulers running on the incremental engine
        (:mod:`repro.core.fasteval`) additionally report ``evals``,
        ``suffix_replays``, ``window_delta_evals``, ``window_skips``,
        ``window_delay_skips``, ``soa_evals`` and ``cache_hits`` (see
        :class:`repro.core.fasteval.EvalCounters`) plus a
        ``phase_times`` mapping of per-phase wall seconds
        (``spatial_mapping`` / ``local_search`` / ``intra_gpu``),
        surfaced by ``repro schedule --profile-sched``.
    """

    algorithm: str
    schedule: Schedule
    latency: float
    scheduling_time: float = 0.0
    stats: Mapping[str, Any] = field(default_factory=dict)
