"""SLO metrics and artifacts of a serving run (``repro.servereport/v1``).

Every SLO quantity here lives on the *simulated* clock — no wall time,
no host-dependent state — so a report is bit-identical across machines
and Python versions for a given :class:`~repro.serve.config.ServeConfig`.
That is what lets CI gate the scenario suite against committed JSON
baselines with exact equality on the counters.  The one exception is
``sched_ms``, the host wall-clock seconds spent inside the schedulers
(plus its companion cache counters ``sched_cache_hits`` /
``sched_cache_misses`` / ``warm_starts``, which *are* deterministic):
it measures this machine's scheduling cost and must never be compared
bit-exactly.

:func:`serve_timeline` re-casts the run as a pseudo
:class:`~repro.substrate.engine.ExecutionTrace` — one span per
(query, leased GPU) — so the existing Chrome-trace exporter
(:func:`repro.obs.chrome_trace_document`) renders the pool timeline
with no serving-specific export code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..formats import SERVE_REPORT_FORMAT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..substrate.engine import ExecutionTrace
    from .config import ServeConfig

__all__ = [
    "SERVE_REPORT_FORMAT",
    "RequestRecord",
    "ServeReport",
    "TenantReport",
    "percentile",
    "serve_timeline",
]


#: Terminal request statuses and what they mean.
STATUSES = (
    "completed",  # ran to completion (possibly after repair/retry)
    "shed-queue",  # rejected at admission: queue full
    "shed-deadline",  # dropped at dispatch: predicted to miss its deadline
    "failed",  # retries exhausted, no GPUs left, or starved at horizon
)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation — keeps bit-stability).

    Returns 0.0 for an empty sample so reports never carry NaN.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class RequestRecord:
    """Lifecycle of one request through the serving loop.

    ``dispatched_ms`` / ``gpus`` / ``algorithm`` reflect the *last*
    dispatch (retries overwrite them); ``attempts`` counts dispatches,
    ``repairs`` sums cascading-repair rounds across attempts (recorded
    on the batch leader when the dispatch was a merged batch).
    ``batch`` is the dispatch's batch size, ``batched_with`` the batch
    leader's request id on follower records (empty on leaders and
    unbatched dispatches), and ``resizes`` counts elastic lease
    grow/shrink rounds (leader record only).
    """

    id: str
    tenant: str
    model: str
    priority: int
    arrival_ms: float
    deadline_ms: float
    status: str = "queued"
    reason: str = ""
    dispatched_ms: float | None = None
    released_ms: float | None = None
    completed_ms: float | None = None
    latency_ms: float | None = None
    gpus: tuple[int, ...] = ()
    algorithm: str = ""
    degraded: bool = False
    attempts: int = 0
    repairs: int = 0
    displaced: int = 0
    batch: int = 1
    batched_with: str = ""
    resizes: int = 0
    deadline_met: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "model": self.model,
            "priority": self.priority,
            "arrival_ms": self.arrival_ms,
            "deadline_ms": self.deadline_ms,
            "status": self.status,
            "reason": self.reason,
            "dispatched_ms": self.dispatched_ms,
            "released_ms": self.released_ms,
            "completed_ms": self.completed_ms,
            "latency_ms": self.latency_ms,
            "gpus": list(self.gpus),
            "algorithm": self.algorithm,
            "degraded": self.degraded,
            "attempts": self.attempts,
            "repairs": self.repairs,
            "displaced": self.displaced,
            "batch": self.batch,
            "batched_with": self.batched_with,
            "resizes": self.resizes,
            "deadline_met": self.deadline_met,
        }


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant slice of the run."""

    tenant: str
    arrivals: int
    completed: int
    shed: int
    failed: int
    deadline_misses: int
    p50_ms: float
    p99_ms: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "deadline_misses": self.deadline_misses,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


@dataclass(frozen=True)
class ServeReport:
    """The run's SLO scorecard.

    ``admitted`` counts requests that passed admission control (so
    ``arrivals == admitted + shed_queue_full``); of the admitted,
    ``completed + shed_deadline + failed == admitted``.  ``goodput_qps``
    counts only completions that met their deadline, over the makespan.

    The lifecycle counters added by the recovery/batching/elastic work:
    ``revived`` counts ``repair:G@T`` events that returned a dead GPU
    to service, ``batched`` the requests that rode along as followers
    of a merged same-model batch (``sum(batch - 1)`` over dispatches),
    and ``elastic_grows`` / ``elastic_shrinks`` the in-flight lease
    resizes (together they equal ``sum(rec.resizes)`` — the V010 lint
    rule holds reports to these identities).  ``displaced`` and
    ``repairs`` are summed from the records; the other loop counters
    cannot be, so the simulator passes them in.
    """

    arrivals: int
    admitted: int
    completed: int
    shed_queue_full: int
    shed_deadline: int
    failed: int
    deadline_misses: int
    retries: int
    displaced: int
    repairs: int
    degraded_dispatches: int
    revived: int
    batched: int
    elastic_grows: int
    elastic_shrinks: int
    p50_ms: float
    p99_ms: float
    goodput_qps: float
    deadline_miss_rate: float
    makespan_ms: float
    gpu_busy_ms: dict[int, float] = field(default_factory=dict)
    tenants: tuple[TenantReport, ...] = ()
    #: wall-clock seconds spent inside the scheduler (host time, NOT the
    #: simulated clock — excluded from bit-exact baseline comparisons)
    sched_ms: float = 0.0
    sched_cache_hits: int = 0
    sched_cache_misses: int = 0
    warm_starts: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: list[RequestRecord],
        retries: int,
        degraded_dispatches: int,
        gpu_busy_ms: dict[int, float],
        horizon_ms: float,
        revived: int = 0,
        elastic_grows: int = 0,
        elastic_shrinks: int = 0,
        sched_ms: float = 0.0,
        sched_cache_hits: int = 0,
        sched_cache_misses: int = 0,
        warm_starts: int = 0,
    ) -> "ServeReport":
        completed = [r for r in records if r.status == "completed"]
        latencies = [r.latency_ms for r in completed if r.latency_ms is not None]
        misses = sum(1 for r in completed if r.deadline_met is False)
        on_time = len(completed) - misses
        shed_queue = sum(1 for r in records if r.status == "shed-queue")
        shed_deadline = sum(1 for r in records if r.status == "shed-deadline")
        failed = sum(1 for r in records if r.status == "failed")
        ends = [r.completed_ms for r in completed if r.completed_ms is not None]
        makespan = max([horizon_ms] + ends)

        tenants: list[TenantReport] = []
        for name in sorted({r.tenant for r in records}):
            rows = [r for r in records if r.tenant == name]
            done = [r for r in rows if r.status == "completed"]
            lat = [r.latency_ms for r in done if r.latency_ms is not None]
            tenants.append(
                TenantReport(
                    tenant=name,
                    arrivals=len(rows),
                    completed=len(done),
                    shed=sum(1 for r in rows if r.status.startswith("shed")),
                    failed=sum(1 for r in rows if r.status == "failed"),
                    deadline_misses=sum(1 for r in done if r.deadline_met is False),
                    p50_ms=percentile(lat, 50),
                    p99_ms=percentile(lat, 99),
                )
            )
        return cls(
            arrivals=len(records),
            admitted=len(records) - shed_queue,
            completed=len(completed),
            shed_queue_full=shed_queue,
            shed_deadline=shed_deadline,
            failed=failed,
            deadline_misses=misses,
            retries=retries,
            displaced=sum(r.displaced for r in records),
            repairs=sum(r.repairs for r in records),
            degraded_dispatches=degraded_dispatches,
            revived=revived,
            batched=sum(1 for r in records if r.batched_with),
            elastic_grows=elastic_grows,
            elastic_shrinks=elastic_shrinks,
            p50_ms=percentile(latencies, 50),
            p99_ms=percentile(latencies, 99),
            goodput_qps=on_time / (makespan / 1000.0) if makespan > 0 else 0.0,
            deadline_miss_rate=misses / len(completed) if completed else 0.0,
            makespan_ms=makespan,
            gpu_busy_ms=gpu_busy_ms,
            tenants=tuple(tenants),
            sched_ms=sched_ms,
            sched_cache_hits=sched_cache_hits,
            sched_cache_misses=sched_cache_misses,
            warm_starts=warm_starts,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (``repro.servereport/v1``)."""
        return {
            "format": SERVE_REPORT_FORMAT,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "failed": self.failed,
            "deadline_misses": self.deadline_misses,
            "retries": self.retries,
            "displaced": self.displaced,
            "repairs": self.repairs,
            "degraded_dispatches": self.degraded_dispatches,
            "revived": self.revived,
            "batched": self.batched,
            "elastic_grows": self.elastic_grows,
            "elastic_shrinks": self.elastic_shrinks,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "goodput_qps": self.goodput_qps,
            "deadline_miss_rate": self.deadline_miss_rate,
            "makespan_ms": self.makespan_ms,
            "gpu_busy_ms": {str(g): b for g, b in sorted(self.gpu_busy_ms.items())},
            "tenants": {t.tenant: t.to_dict() for t in self.tenants},
            "sched_ms": self.sched_ms,
            "sched_cache_hits": self.sched_cache_hits,
            "sched_cache_misses": self.sched_cache_misses,
            "warm_starts": self.warm_starts,
        }

    def to_text(self) -> str:
        lines = [
            f"arrivals {self.arrivals}  admitted {self.admitted}  "
            f"completed {self.completed}  failed {self.failed}",
            f"shed: queue-full {self.shed_queue_full}  "
            f"deadline {self.shed_deadline}",
            f"retries {self.retries}  displaced {self.displaced}  "
            f"repairs {self.repairs}  degraded dispatches {self.degraded_dispatches}",
            f"revived {self.revived}  batched {self.batched}  "
            f"elastic grow/shrink {self.elastic_grows}/{self.elastic_shrinks}",
            f"latency p50 {self.p50_ms:.3f} ms  p99 {self.p99_ms:.3f} ms",
            f"goodput {self.goodput_qps:.2f} qps  "
            f"deadline-miss rate {self.deadline_miss_rate:.1%}  "
            f"makespan {self.makespan_ms:.1f} ms",
            f"scheduling {self.sched_ms:.1f} ms wall  "
            f"cache {self.sched_cache_hits} hit(s) / "
            f"{self.sched_cache_misses} miss(es)  "
            f"warm starts {self.warm_starts}",
        ]
        for t in self.tenants:
            lines.append(
                f"  tenant {t.tenant}: {t.completed}/{t.arrivals} completed, "
                f"{t.shed} shed, {t.failed} failed, "
                f"p50 {t.p50_ms:.3f} ms, p99 {t.p99_ms:.3f} ms, "
                f"{t.deadline_misses} deadline miss(es)"
            )
        return "\n".join(lines)


def serve_timeline(
    records: list[RequestRecord],
) -> "tuple[ExecutionTrace, dict[str, int]]":
    """The pool timeline as a pseudo execution trace for Chrome export.

    Each dispatched request becomes one span per leased GPU — named
    ``{id}`` on its first lease GPU and ``{id}@gN`` on the others —
    running from dispatch to release.  Batched followers hold no lease
    of their own (they ride the leader's), so only the leader's span
    represents the shared occupancy — one span per *lease*, which is
    what keeps the timeline linearizable under the exclusive-lease
    happens-before check.  Feed the pair straight into
    :func:`repro.obs.chrome_trace_document`.
    """
    from ..substrate.engine import ExecutionTrace  # local import avoids a cycle

    op_launch: dict[str, float] = {}
    op_start: dict[str, float] = {}
    op_finish: dict[str, float] = {}
    op_gpu: dict[str, int] = {}
    gpu_busy: dict[int, float] = {}
    latency = 0.0
    for rec in records:
        if rec.dispatched_ms is None or rec.released_ms is None:
            continue
        if rec.batched_with:
            continue  # the leader's span covers the shared lease
        for i, gpu in enumerate(rec.gpus):
            name = rec.id if i == 0 else f"{rec.id}@g{gpu}"
            op_launch[name] = rec.arrival_ms if i == 0 else rec.dispatched_ms
            op_start[name] = rec.dispatched_ms
            op_finish[name] = rec.released_ms
            op_gpu[name] = gpu
            gpu_busy[gpu] = gpu_busy.get(gpu, 0.0) + (
                rec.released_ms - rec.dispatched_ms
            )
        latency = max(latency, rec.released_ms)
    trace = ExecutionTrace(
        latency=latency,
        op_launch=op_launch,
        op_start=op_start,
        op_finish=op_finish,
        transfers=[],
        gpu_busy=gpu_busy,
    )
    return trace, op_gpu
