"""Declarative serving-scenario configuration (``repro.serve/v1``).

A :class:`ServeConfig` is the *complete* description of a serving run:
the GPU pool, the tenants and their arrival processes, the admission /
degradation / retry policies, and the fault plan the pool faces.  The
simulator is a pure function of this object — same config, bit-identical
:class:`~repro.serve.report.ServeReport` — so configs round-trip through
JSON (``to_dict`` / ``from_dict``) and are committed next to the
benchmark baselines they produced.

The JSON contract is the ``serve`` rule pack
(:mod:`repro.lint.serve_rules`).  Constructing a :class:`TenantSpec` or
a :class:`ServeConfig` — directly, through :func:`dataclasses.replace`,
or with ``from_dict`` — runs the pack's error rules on the document and
raises :class:`ServeConfigError` naming each finding's rule and
location, so a config the library takes is one ``repro lint`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..formats import SERVE_CONFIG_FORMAT, scalar_values

__all__ = ["SERVE_CONFIG_FORMAT", "ServeConfig", "ServeConfigError", "TenantSpec"]


class ServeConfigError(ValueError):
    """Raised when a serving configuration breaks an error rule of the
    ``serve`` lint pack."""


def _check(doc: Mapping[str, Any]) -> None:
    """Raise :class:`ServeConfigError` naming each error finding of the
    ``serve`` rule pack on the config document ``doc``."""
    from ..lint.framework import LintContext, Linter  # runtime import: lint imports us

    errors = Linter().errors_only().for_packs("serve").run(LintContext(serve_doc=doc)).errors
    if errors:
        raise ServeConfigError("; ".join(d.format() for d in errors))


def _alone(tenant: object) -> dict[str, Any]:
    """The config document whose one tenant is ``tenant``, every other
    field at its default."""
    return {"format": SERVE_CONFIG_FORMAT, "tenants": [tenant]}


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
        _check(_alone(self.to_dict()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "model": self.model,
            "rate_qps": self.rate_qps,
            "arrivals_ms": list(self.arrivals_ms),
            "priority": self.priority,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TenantSpec":
        _check(_alone(doc))
        return cls(arrivals_ms=tuple(doc.get("arrivals_ms", ())), **scalar_values(cls, doc))


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
        _check(self.to_dict())

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
        _check(doc)
        return cls(
            tenants=tuple(TenantSpec.from_dict(t) for t in doc["tenants"]),
            faults=tuple(doc.get("faults", ())),
            **scalar_values(cls, doc),
        )
