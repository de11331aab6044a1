"""Convenience entry points: one call per lintable subject.

Each function builds the right :class:`~repro.lint.framework.LintContext`
and runs the applicable slice of the registered rule set, returning a
:class:`~repro.lint.diagnostics.LintReport` with *every* finding —
callers that want the legacy raise-on-first-error behaviour use
:meth:`LintReport.raise_errors`.
"""

from __future__ import annotations

from typing import Any, Mapping, TYPE_CHECKING

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from .diagnostics import LintReport
from .framework import LintContext, Linter

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..substrate.engine import ExecutionTrace
    from ..substrate.faults import FaultPlan

__all__ = [
    "lint_graph",
    "lint_schedule",
    "lint_schedule_document",
    "lint_trace",
    "lint_fault_plan",
    "lint_cache_document",
    "lint_chrome_trace",
    "lint_serve_config",
    "lint_serve_report",
    "lint_hb_report",
]


def _linter(errors_only: bool) -> Linter:
    return Linter().errors_only() if errors_only else Linter()


def lint_graph(
    graph: OpGraph,
    *,
    fanout_threshold: int = 16,
    errors_only: bool = False,
) -> LintReport:
    """Run the graph rule pack over one computation graph."""
    ctx = LintContext(graph=graph, fanout_threshold=fanout_threshold)
    return _linter(errors_only).run(ctx)


def lint_schedule(
    graph: OpGraph,
    schedule: Schedule,
    *,
    window: int | None = None,
    errors_only: bool = False,
) -> LintReport:
    """Run the graph + schedule rule packs over a built schedule."""
    ctx = LintContext(graph=graph, schedule=schedule, window=window)
    return _linter(errors_only).run(ctx)


def lint_schedule_document(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the document-level schedule rules over raw JSON data."""
    ctx = LintContext(schedule_doc=data)
    return _linter(errors_only).run(ctx)


def lint_trace(
    graph: OpGraph,
    schedule: Schedule,
    trace: "ExecutionTrace",
    *,
    eps: float = 1e-6,
    errors_only: bool = False,
) -> LintReport:
    """Run the trace rule pack over one execution trace.

    Graph and schedule context make the causality rules precise
    (transfer-aware cross-GPU checks, stage-barrier checks); the
    schedule rules also run, so a trace linted against a broken
    schedule reports both problems at once.
    """
    ctx = LintContext(graph=graph, schedule=schedule, trace=trace, eps=eps)
    return _linter(errors_only).run(ctx)


def lint_fault_plan(
    plan: "FaultPlan",
    *,
    num_gpus: int | None = None,
    horizon: float | None = None,
    errors_only: bool = False,
) -> LintReport:
    """Run the fault-plan rule pack over one declarative fault plan."""
    ctx = LintContext(plan=plan, num_gpus=num_gpus, horizon=horizon)
    return _linter(errors_only).run(ctx)


def lint_cache_document(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the cache rule pack over one sweep result-cache entry."""
    ctx = LintContext(cache_doc=data)
    return _linter(errors_only).run(ctx)


def lint_serve_config(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the serve rule pack over one ``repro.serve/v1`` config doc.

    ``data`` is the raw mapping (e.g. parsed JSON) — linting never
    constructs a :class:`repro.serve.config.ServeConfig`, so malformed
    documents are reported instead of raising.
    """
    ctx = LintContext(serve_doc=data)
    return _linter(errors_only).run(ctx)


def lint_serve_report(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the report rules over one ``repro.servereport/v1`` document.

    ``data`` is the JSON-object form ``repro serve --json`` emits
    (:meth:`repro.serve.report.ServeReport.to_dict`, optionally with
    the per-request records embedded under ``requests``).  The rules
    check the lifecycle-counter conservation identities and, when
    records are present, that the aggregates match what the records
    add up to.
    """
    ctx = LintContext(serve_report_doc=data)
    return _linter(errors_only).run(ctx)


def lint_hb_report(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the hb rule pack over one ``repro.hbreport/v1`` document.

    ``data`` is the JSON-object form ``repro sanitize --json`` emits
    (:meth:`repro.sanitize.SanitizeReport.to_dict`).  Linting never
    reconstructs the report, so malformed documents are diagnosed
    instead of raising.
    """
    ctx = LintContext(hb_doc=data)
    return _linter(errors_only).run(ctx)


def lint_chrome_trace(
    data: Mapping[str, Any], *, errors_only: bool = False
) -> LintReport:
    """Run the chrome rule pack over one exported ``trace_event`` doc.

    ``data`` is the JSON-object-form document
    :func:`repro.obs.chrome_trace_document` produces (``traceEvents``
    array plus ``otherData`` with the exporter format marker).
    """
    ctx = LintContext(chrome_doc=data)
    return _linter(errors_only).run(ctx)
