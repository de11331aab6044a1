"""Persistent content-addressed schedule cache (``repro.schedcache/v1``).

Scheduling the big Section V workloads costs hundreds of milliseconds;
the result depends only on the cost profile, the algorithm and its
keyword arguments.  This module caches whole schedules across process
restarts under a key derived from exactly those inputs, so ``repro
serve``, ``repro schedule`` and the repair path hit warm schedules
instead of re-running Alg. 1/2/3.

**Keying.**  :func:`profile_fingerprint` canonicalizes everything that
determines a scheduler's output: every operator (name, cost, occupancy),
every edge (endpoints, transfer weight), the GPU count and speeds, the
stream cap, the communication model flag, and the concurrency model's
identity and parameters.  An *unknown* concurrency model (anything
outside :mod:`repro.costmodel.concurrency`) has no canonical encoding
— the fingerprint is ``None`` and the cache degrades to a no-op rather
than risking a false hit.  The key is the SHA-256 of the canonical JSON
of (format marker, fingerprint, algorithm, kwargs), via the same
:func:`repro.sweep.keying.content_key` the sweep cache uses, so keys
never collide across the two entry species sharing the tree.

**Entries.**  One ``repro.schedcache/v1`` document per schedule::

    {"format": "repro.schedcache/v1", "schema_version": 1,
     "key": "<sha256>", "kind": "schedule", "algorithm": "hios-lp",
     "payload": {"schedule": {...Schedule.to_dict()...},
                 "latency": 12.5},
     "meta": {"scheduling_time_s": 0.31}}

Reads build the :class:`~repro.core.schedule.Schedule` with
``Schedule.from_unlinted_dict`` instead of the linting
``Schedule.from_dict`` — a hot read-path must not pay the lint
framework, and any malformed document is discarded as a miss exactly
like a corrupt sweep entry.  Hits are bit-identical replays of the
scheduler's output: the schedule JSON round-trips losslessly and the
recorded latency is the scheduler's exact float.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.result import ScheduleResult
from ..core.schedule import Schedule, ScheduleError
from ..costmodel.concurrency import (
    MaxConcurrencyModel,
    SaturationConcurrencyModel,
    SumConcurrencyModel,
    TableConcurrencyModel,
)
from ..costmodel.profile import CostProfile
from ..formats import SCHED_CACHE_FORMAT, finite
from .cache import ContentStore
from .keying import content_key

__all__ = [
    "SCHED_CACHE_FORMAT",
    "SCHED_CACHE_KIND",
    "ScheduleCache",
    "cached_schedule",
    "concurrency_fingerprint",
    "profile_fingerprint",
    "schedule_key",
]

SCHED_CACHE_KIND = "schedule"


def concurrency_fingerprint(model: object) -> dict[str, Any] | None:
    """Canonical description of a concurrency model, or ``None`` for a
    model this module cannot prove cacheable.

    Exact types only — a subclass may override ``duration`` with
    arbitrary behaviour, so it must not inherit its parent's
    fingerprint.
    """
    if type(model) is MaxConcurrencyModel:
        return {"model": "max"}
    if type(model) is SumConcurrencyModel:
        return {"model": "sum"}
    if type(model) is SaturationConcurrencyModel:
        return {
            "model": "saturation",
            "contention_penalty": model.contention_penalty,
            "stream_overhead": model.stream_overhead,
        }
    if type(model) is TableConcurrencyModel:
        fallback = concurrency_fingerprint(model._fallback)
        if fallback is None:
            return None
        return {
            "model": "table",
            "table": sorted(
                (sorted(names), duration)
                for names, duration in model._table.items()
            ),
            "fallback": fallback,
        }
    return None


def profile_fingerprint(profile: CostProfile) -> dict[str, Any] | None:
    """Canonical content description of a :class:`CostProfile`, or
    ``None`` when the profile is not cacheable (unknown concurrency
    model, or non-finite weights that canonical JSON rejects)."""
    concurrency = concurrency_fingerprint(profile.concurrency)
    if concurrency is None:
        return None
    graph = profile.graph
    return {
        "ops": [
            [op.name, op.cost, op.occupancy] for op in graph.operators()
        ],
        "edges": sorted(graph.edges()),
        "num_gpus": profile.num_gpus,
        "max_streams": profile.max_streams,
        "send_blocking": profile.send_blocking,
        "gpu_speeds": list(profile.gpu_speeds) if profile.gpu_speeds else None,
        "concurrency": concurrency,
    }


def schedule_key(
    profile: CostProfile,
    algorithm: str,
    kwargs: Mapping[str, Any] | None = None,
) -> str | None:
    """Content key for (profile, algorithm, kwargs), or ``None`` when
    the profile is uncacheable.  Kwargs must be JSON-representable —
    anything else makes the combination uncacheable too."""
    fingerprint = profile_fingerprint(profile)
    if fingerprint is None:
        return None
    material = {
        "format": SCHED_CACHE_FORMAT,
        "profile": fingerprint,
        "algorithm": algorithm,
        "kwargs": dict(kwargs or {}),
    }
    try:
        return content_key(material)
    except (TypeError, ValueError):
        return None


class ScheduleCache(ContentStore):
    """Schedule store (``repro.schedcache/v1``) sharing the sweep
    cache's sharded tree, read/write discipline and maintenance CLI."""

    format = SCHED_CACHE_FORMAT

    def _check_payload(self, payload: dict[str, Any]) -> bool:
        schedule = payload.get("schedule")
        latency = payload.get("latency")
        if not isinstance(schedule, dict) or not isinstance(schedule.get("gpus"), list):
            return False
        return finite(latency) is not None

    # ------------------------------------------------------------------
    def get_schedule(self, key: str) -> tuple[Schedule, float] | None:
        """``(schedule, latency)`` for ``key``, or ``None`` on a miss.

        Builds the schedule without the linting ``from_dict`` path; a
        document that does not build is discarded and reported as a
        miss.
        """
        payload = self.get(key)
        if payload is None:
            return None
        try:
            schedule = Schedule.from_unlinted_dict(payload["schedule"])
        except ScheduleError:
            self._discard(self.path_for(key))
            self.hits -= 1
            self.misses += 1
            return None
        return schedule, float(payload["latency"])

    def put_schedule(
        self,
        key: str,
        result: ScheduleResult,
        meta: Mapping[str, float] | None = None,
    ) -> None:
        """Persist a scheduler result under ``key``."""
        merged: dict[str, float] = {"scheduling_time_s": result.scheduling_time}
        if meta:
            merged.update(meta)
        self.put(
            key,
            {"schedule": result.schedule.to_dict(), "latency": result.latency},
            kind=SCHED_CACHE_KIND,
            algorithm=result.algorithm,
            meta=merged,
        )


def cached_schedule(
    profile: CostProfile,
    algorithm: str,
    cache: ScheduleCache | None = None,
    **kwargs: Any,
) -> tuple[ScheduleResult, bool]:
    """Schedule ``profile`` through the persistent cache.

    Returns ``(result, hit)``.  A hit replays the cached schedule and
    its exact latency with ``scheduling_time == 0.0`` and
    ``stats={"sched_cache": "hit"}``; a miss runs the scheduler and
    persists its result.  With ``cache=None`` — or an uncacheable
    combination (unknown concurrency model, non-JSON kwargs) — this is
    exactly ``schedule_graph``.
    """
    from ..core.api import schedule_graph  # runtime import: api is heavy

    key = schedule_key(profile, algorithm, kwargs) if cache is not None else None
    if cache is not None and key is not None:
        got = cache.get_schedule(key)
        if got is not None:
            schedule, latency = got
            return (
                ScheduleResult(
                    algorithm=algorithm,
                    schedule=schedule,
                    latency=latency,
                    scheduling_time=0.0,
                    stats={"sched_cache": "hit"},
                ),
                True,
            )
    result = schedule_graph(profile, algorithm, **kwargs)
    if cache is not None and key is not None:
        cache.put_schedule(key, result)
    return result, False
