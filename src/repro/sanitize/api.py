"""High-level entry points: analyze a (graph, schedule) pair and
produce a serializable ``repro.hbreport/v1`` document.

:func:`analyze` runs every static detector (deadlock witness, races,
transfer hazards, nondeterminism) and optionally the vector-clock
linearization check over execution traces; the result is a
:class:`SanitizeReport` whose ``to_dict`` form is the ``hb`` lint
subject (rules ``H0xx``) and whose ``to_text`` form is what
``repro sanitize`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from ..formats import HBREPORT_FORMAT
from .detectors import (
    find_deadlock,
    find_nondeterminism,
    find_races,
    find_transfer_hazards,
)
from .hbgraph import ExecModel, HbGraph, build_hb_graph
from .vclock import HbClocks, HbViolation, check_engine_trace, check_timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..substrate.engine import ExecutionTrace

__all__ = [
    "HBREPORT_FORMAT",
    "SanitizeFinding",
    "SanitizeReport",
    "analyze",
    "trace_findings",
    "timeline_findings",
]


#: kind -> severity; the fixed taxonomy H002 validates against.
FINDING_KINDS: dict[str, str] = {
    "deadlock": "error",
    "race": "error",
    "linearization": "error",
    "timeline": "error",
    "transfer-hazard": "warning",
    "nondeterminism": "info",
}

_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class SanitizeFinding:
    """One analyzer result.  ``witness`` is the happens-before evidence:
    ``(event, edge-kind)`` steps for a deadlock cycle, or a single
    ``(event, edge-kind)`` pair naming the violated edge."""

    kind: str
    severity: str
    message: str
    location: str = ""
    witness: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "witness": [
                {"event": event, "edge": edge} for event, edge in self.witness
            ],
        }


@dataclass(frozen=True)
class SanitizeReport:
    """Everything one ``repro sanitize`` run concluded."""

    findings: tuple[SanitizeFinding, ...]
    model: ExecModel
    stats: Mapping[str, int]

    @property
    def errors(self) -> tuple[SanitizeFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[SanitizeFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors

    def with_findings(
        self, extra: Iterable[SanitizeFinding]
    ) -> "SanitizeReport":
        merged = sorted(
            (*self.findings, *extra),
            key=lambda f: (_SEVERITY_ORDER.get(f.severity, 3), f.kind),
        )
        return replace(self, findings=tuple(merged))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": HBREPORT_FORMAT,
            "model": {
                "overlap_launch": self.model.overlap_launch,
                "send_blocking": self.model.send_blocking,
                "max_streams": self.model.max_streams,
                "data_wait": self.model.data_wait,
            },
            "stats": dict(self.stats),
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.findings)
                - len(self.errors)
                - len(self.warnings),
            },
        }

    def to_text(self) -> str:
        lines = [f"happens-before analysis ({self.model.describe()})"]
        if self.stats:
            lines.append(
                "  "
                + ", ".join(f"{v} {k}" for k, v in sorted(self.stats.items()))
            )
        for f in self.findings:
            where = f"  (at {f.location})" if f.location else ""
            lines.append(f"{f.severity.upper()} [{f.kind}] {f.message}{where}")
            for event, edge in f.witness:
                lines.append(f"    {event}  --[{edge}]-->")
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.findings) - n_err - n_warn
        if not self.findings:
            lines.append("clean: no hazards found")
        else:
            lines.append(
                f"summary: {n_err} error(s), {n_warn} warning(s), "
                f"{n_info} info"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _violation_finding(vio: HbViolation, kind: str) -> SanitizeFinding:
    location = (
        f"edge:{vio.u}->{vio.v}"
        if vio.u
        else f"event:{vio.dst.describe()}"
    )
    return SanitizeFinding(
        kind=kind,
        severity=FINDING_KINDS[kind],
        message=vio.describe(),
        location=location,
        witness=((vio.src.describe(), vio.kind),),
    )


def trace_findings(
    graph: OpGraph,
    schedule: Schedule,
    trace: "ExecutionTrace",
    model: ExecModel | None = None,
    *,
    eps: float = 1e-6,
    structural: bool | None = None,
) -> list[SanitizeFinding]:
    """Vector-clock linearization check of one engine trace, as
    report findings."""
    return [
        _violation_finding(vio, "linearization")
        for vio in check_engine_trace(
            graph, schedule, trace, model, eps=eps, structural=structural
        )
    ]


def timeline_findings(
    trace: "ExecutionTrace",
    op_gpu: Mapping[str, int],
    *,
    eps: float = 1e-6,
) -> list[SanitizeFinding]:
    """Lease-order linearization check of one serve timeline."""
    return [
        _violation_finding(vio, "timeline")
        for vio in check_timeline(trace, op_gpu, eps=eps)
    ]


def _stats(hb: HbGraph, schedule: Schedule) -> dict[str, int]:
    return {
        "events": hb.num_events,
        "edges": hb.num_edges,
        "requirements": len(hb.requirements),
        "operators": len(hb.gpu_of),
        "stages": schedule.num_stages,
        "gpus": len(schedule.used_gpus()),
    }


def analyze(
    graph: OpGraph,
    schedule: Schedule,
    model: ExecModel | None = None,
    *,
    traces: Iterable["ExecutionTrace"] = (),
    eps: float = 1e-6,
) -> SanitizeReport:
    """Run every static detector (and, for each of ``traces``, the
    linearization check) and return the combined report.

    Unlike ``Schedule.validate`` this never raises on a bad schedule —
    the point is to *explain* it; deadlocked schedules yield a
    ``deadlock`` finding with a witness cycle and skip the
    reachability-based detectors (reachability is ill-defined on a
    cyclic graph, and the deadlock subsumes them).
    """
    model = model or ExecModel()
    hb = build_hb_graph(graph, schedule, model)
    findings: list[SanitizeFinding] = []
    cycle = find_deadlock(hb)
    if cycle is not None:
        steps = tuple(zip(cycle.events, cycle.kinds))
        findings.append(
            SanitizeFinding(
                kind="deadlock",
                severity="error",
                message=(
                    f"schedule deadlocks: cyclic wait among {len(cycle)} "
                    "events; no engine run can finish (witness cycle below)"
                ),
                witness=steps,
            )
        )
    else:
        clocks = HbClocks(hb)
        stage_of = {
            op: (schedule.gpu_of(op), schedule.stage_index_of(op))
            for op in hb.gpu_of
        }
        for race in find_races(hb, clocks, stage_of):
            req = race.requirement
            findings.append(
                SanitizeFinding(
                    kind="race",
                    severity="error",
                    message=race.describe(),
                    location=f"edge:{req.u}->{req.v}",
                    witness=((req.src.describe(), "dep"),),
                )
            )
        for hazard in find_transfer_hazards(hb, clocks):
            req = hazard.requirement
            findings.append(
                SanitizeFinding(
                    kind="transfer-hazard",
                    severity="warning",
                    message=hazard.describe(),
                    location=f"edge:{req.u}->{req.v}",
                    witness=((req.src.describe(), "data"),),
                )
            )
        stages = [
            (g, st.ops)
            for g in range(schedule.num_gpus)
            for st in schedule.stages_on(g)
        ]
        nondet = find_nondeterminism(hb, clocks, stages)
        if nondet is not None:
            findings.append(
                SanitizeFinding(
                    kind="nondeterminism",
                    severity="info",
                    message=nondet.describe(),
                )
            )
        for trace in traces:
            findings.extend(
                trace_findings(graph, schedule, trace, model, eps=eps)
            )
    report = SanitizeReport(
        findings=(), model=model, stats=_stats(hb, schedule)
    )
    return report.with_findings(findings)
