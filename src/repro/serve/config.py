"""Declarative serving-scenario configuration (``repro.serve/v1``).

A :class:`ServeConfig` is the *complete* description of a serving run:
the GPU pool, the tenants and their arrival processes, the admission /
degradation / retry policies, and the fault plan the pool faces.  The
simulator is a pure function of this object — same config, bit-identical
:class:`~repro.serve.report.ServeReport` — so configs round-trip through
JSON (``to_dict`` / ``from_dict``) and are committed next to the
benchmark baselines they produced.

The JSON contract is linted by the ``serve`` rule pack
(:mod:`repro.lint.serve_rules`); the constructor enforces the hard
invariants and raises :class:`ServeConfigError` on violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.api import ALGORITHMS
from ..formats import SERVE_CONFIG_FORMAT, scalar_fields

__all__ = ["SERVE_CONFIG_FORMAT", "ServeConfig", "ServeConfigError", "TenantSpec"]


class ServeConfigError(ValueError):
    """Raised when a serving configuration violates its invariants."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an arrival process over a model of the zoo.

    ``rate_qps > 0`` generates seeded Poisson arrivals over the horizon;
    ``arrivals_ms`` adds explicit (trace-driven) arrival times.  The two
    compose — a tenant can have a baseline Poisson load plus a scripted
    burst.  ``priority`` orders the admission queue (higher first);
    ``deadline_ms`` is the per-request latency SLO measured from
    arrival.
    """

    name: str
    model: str
    rate_qps: float = 0.0
    arrivals_ms: tuple[float, ...] = ()
    priority: int = 0
    deadline_ms: float = 1000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeConfigError("tenant needs a non-empty name")
        if self.rate_qps < 0:
            raise ServeConfigError(f"tenant {self.name!r}: negative rate_qps")
        if self.rate_qps == 0 and not self.arrivals_ms:
            raise ServeConfigError(
                f"tenant {self.name!r} has no arrivals: set rate_qps or arrivals_ms"
            )
        if any(t < 0 for t in self.arrivals_ms):
            raise ServeConfigError(f"tenant {self.name!r}: negative arrival time")
        if self.deadline_ms <= 0:
            raise ServeConfigError(f"tenant {self.name!r}: deadline must be positive")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "model": self.model,
            "priority": self.priority,
            "deadline_ms": self.deadline_ms,
        }
        if self.rate_qps:
            doc["rate_qps"] = self.rate_qps
        if self.arrivals_ms:
            doc["arrivals_ms"] = list(self.arrivals_ms)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TenantSpec":
        scalars = scalar_fields(cls, doc, ServeConfigError, "tenant")
        arrivals = doc.get("arrivals_ms", ())
        if not isinstance(arrivals, (list, tuple)) or any(
            isinstance(t, bool) or not isinstance(t, (int, float)) for t in arrivals
        ):
            raise ServeConfigError(f"tenant arrivals_ms is {arrivals!r}, expected an array of times")
        return cls(arrivals_ms=tuple(arrivals), **scalars)


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving run depends on.

    Pool / placement
        ``num_gpus`` GPUs are shared by all queries; each dispatch
        leases ``gpus_per_query`` of them exclusively (the lowest free
        indices) and schedules the query's model on the lease with
        ``algorithm``.

    Admission and shedding
        The queue holds at most ``queue_capacity`` waiting requests;
        arrivals beyond that are shed.  With ``shed_late`` (default), a
        request whose *predicted* completion would already miss its
        deadline is shed at dispatch time instead of wasting GPUs.

    Graceful degradation
        When more than ``overload_queue`` requests are waiting, dispatch
        switches to ``degraded_gpus`` GPUs per query and the (cheaper)
        ``degraded_algorithm`` until the backlog drains.  The overload
        verdict is *latched per dispatch round*: a burst that starts
        degraded drains degraded, instead of flipping back to full
        leases halfway through the round.

    Request batching
        With ``max_batch > 1``, dispatch merges up to ``max_batch``
        queued same-model queries into one batch: one lease, one
        schedule (the existing ``(model, lease, algorithm)`` plan), one
        execution — every member keeps its own deadline accounting.

    Elastic leases
        With ``elastic``, the simulator resizes *in-flight* leases
        through the warm-started repair seam instead of relying only on
        the binary degrade knob: when the queue drains (or a GPU
        returns from repair) leaving free capacity, narrow leases grow
        back toward ``gpus_per_query``; when an overloaded backlog
        cannot dispatch, the widest lease shrinks to ``degraded_gpus``
        to free GPUs for queued work.

    Faults, retry, repair, recovery
        ``faults`` uses the compact spec strings of
        :func:`repro.substrate.faults.parse_fault` and applies to the
        *pool* clock: a ``fail:G@T`` kills pool GPU ``G`` at pool time
        ``T`` for everyone, and a ``repair:G@T`` returns it to service
        at ``T`` (idempotent; ordered after same-instant failures and
        before outcomes/arrivals).  A query in flight on a failed GPU first
        tries cascading repair on the rest of its lease
        (:func:`repro.core.repair.run_with_repair`); if the whole lease
        dies, the query is *displaced* and re-admitted after a backoff.
        Aborted or displaced queries retry up to ``max_retries`` times
        with exponential backoff ``retry_backoff_ms * 2**k`` (seeded
        full jitter when ``retry_jitter``).
    """

    tenants: tuple[TenantSpec, ...]
    num_gpus: int = 4
    gpus_per_query: int = 2
    horizon_ms: float = 1000.0
    seed: int = 0
    algorithm: str = "hios-lp"
    window: int = 3
    queue_capacity: int = 16
    overload_queue: int = 8
    degraded_gpus: int = 1
    degraded_algorithm: str = "sequential"
    shed_late: bool = True
    max_batch: int = 1
    elastic: bool = False
    max_retries: int = 2
    retry_backoff_ms: float = 5.0
    retry_jitter: bool = True
    faults: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServeConfigError("serving needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ServeConfigError(f"duplicate tenant names in {names}")
        if self.num_gpus < 1:
            raise ServeConfigError("need at least one GPU in the pool")
        if not (1 <= self.gpus_per_query <= self.num_gpus):
            raise ServeConfigError(
                f"gpus_per_query={self.gpus_per_query} not in [1, {self.num_gpus}]"
            )
        if not (1 <= self.degraded_gpus <= self.gpus_per_query):
            raise ServeConfigError(
                f"degraded_gpus={self.degraded_gpus} not in [1, {self.gpus_per_query}]"
            )
        if self.horizon_ms <= 0:
            raise ServeConfigError("horizon must be positive")
        for alg in (self.algorithm, self.degraded_algorithm):
            if alg not in ALGORITHMS:
                raise ServeConfigError(
                    f"unknown algorithm {alg!r}; choose from {sorted(ALGORITHMS)}"
                )
        if self.window < 1:
            raise ServeConfigError("window must be >= 1")
        if self.queue_capacity < 1:
            raise ServeConfigError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ServeConfigError("max_batch must be >= 1")
        if self.overload_queue < 0:
            raise ServeConfigError("overload_queue must be >= 0")
        if self.max_retries < 0:
            raise ServeConfigError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ServeConfigError("negative retry backoff")
        # parse eagerly so malformed specs fail at config time, not mid-run
        from ..substrate.faults import FaultError, FaultPlan

        try:
            FaultPlan.from_strings(self.faults, seed=self.seed).validate_for(self.num_gpus)
        except FaultError as exc:
            raise ServeConfigError(f"bad fault spec: {exc}") from exc

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (``repro.serve/v1``)."""
        return {
            "format": SERVE_CONFIG_FORMAT,
            "num_gpus": self.num_gpus,
            "gpus_per_query": self.gpus_per_query,
            "horizon_ms": self.horizon_ms,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "window": self.window,
            "queue_capacity": self.queue_capacity,
            "overload_queue": self.overload_queue,
            "degraded_gpus": self.degraded_gpus,
            "degraded_algorithm": self.degraded_algorithm,
            "shed_late": self.shed_late,
            "max_batch": self.max_batch,
            "elastic": self.elastic,
            "max_retries": self.max_retries,
            "retry_backoff_ms": self.retry_backoff_ms,
            "retry_jitter": self.retry_jitter,
            "faults": list(self.faults),
            "tenants": [t.to_dict() for t in self.tenants],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ServeConfig":
        fmt = doc.get("format")
        if fmt != SERVE_CONFIG_FORMAT:
            raise ServeConfigError(
                f"not a serving config: format={fmt!r} (expected {SERVE_CONFIG_FORMAT!r})"
            )
        tenants, faults = doc.get("tenants", ()), doc.get("faults", ())
        if not isinstance(tenants, (list, tuple)):
            raise ServeConfigError(f"tenants is {tenants!r}, expected an array")
        if not isinstance(faults, (list, tuple)) or not all(isinstance(f, str) for f in faults):
            raise ServeConfigError(f"faults is {faults!r}, expected an array of spec strings")
        return cls(
            tenants=tuple(TenantSpec.from_dict(t) for t in tenants),
            faults=tuple(faults),
            **scalar_fields(cls, doc, ServeConfigError, "serve config"),
        )
