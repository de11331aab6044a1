"""Happens-before concurrency analysis (``repro sanitize``).

Static race/deadlock detection for schedules plus the engine's
happens-before check:

* :mod:`~repro.sanitize.hbgraph` compiles ``(OpGraph, Schedule,
  ExecModel)`` into the happens-before DAG the engine enforces.
* :mod:`~repro.sanitize.detectors` finds deadlocks (with a minimal
  witness cycle), races, transfer hazards and nondeterminism on it.
* :mod:`~repro.sanitize.vclock` holds the vector clocks and the trace
  linearization checkers (also the implementation behind the
  ``T004``/``T005`` lint rules).
* :mod:`~repro.sanitize.api` is the report layer
  (``repro.hbreport/v1``).
* :mod:`~repro.sanitize.runtime` is the ``HIOS_SANITIZE=1`` engine
  check: a static deadlock check before the run and
  :func:`check_engine_trace` on the trace after it.  It is re-exported
  lazily so importing the analysis layers (e.g. from ``repro.lint``)
  never drags in the substrate.
"""

from typing import Any

from .api import (
    FINDING_KINDS,
    HBREPORT_FORMAT,
    SanitizeFinding,
    SanitizeReport,
    analyze,
    timeline_findings,
    trace_findings,
)
from .detectors import (
    NondetReport,
    Race,
    TransferHazard,
    WitnessCycle,
    find_deadlock,
    find_nondeterminism,
    find_races,
    find_transfer_hazards,
)
from .hbgraph import EDGE_KINDS, ExecModel, HbEvent, HbGraph, build_hb_graph
from .vclock import (
    CyclicHbGraphError,
    HbClocks,
    HbViolation,
    check_engine_trace,
    check_timeline,
    dependency_violations,
    timeline_hb_graph,
    transfer_violations,
)

__all__ = [
    "FINDING_KINDS",
    "HBREPORT_FORMAT",
    "SanitizeFinding",
    "SanitizeReport",
    "analyze",
    "trace_findings",
    "timeline_findings",
    "WitnessCycle",
    "Race",
    "TransferHazard",
    "NondetReport",
    "find_deadlock",
    "find_races",
    "find_transfer_hazards",
    "find_nondeterminism",
    "EDGE_KINDS",
    "ExecModel",
    "HbEvent",
    "HbGraph",
    "build_hb_graph",
    "CyclicHbGraphError",
    "HbClocks",
    "HbViolation",
    "check_engine_trace",
    "check_timeline",
    "timeline_hb_graph",
    "dependency_violations",
    "transfer_violations",
    # lazy (see __getattr__): live in .runtime, which imports the substrate
    "SanitizeViolation",
    "sanitize_enabled",
    "sanitizer_for",
]

_RUNTIME_EXPORTS = {
    "SanitizeViolation",
    "sanitize_enabled",
    "sanitizer_for",
}


def __getattr__(name: str) -> Any:
    if name in _RUNTIME_EXPORTS:
        from . import runtime

        return getattr(runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
