"""Chrome-trace rules (``T1xx``): exported ``trace_event`` documents.

:mod:`repro.obs.chrometrace` exports engine traces as Chrome/Perfetto
``trace_event`` JSON.  A malformed export fails *silently* — Perfetto
drops events it cannot parse and renders a partial (or empty) timeline
with no error — so these rules verify the contract up front: the
JSON-object form with a ``traceEvents`` array, the ``otherData`` format
marker the ``repro`` tooling keys on, per-event structural invariants
(phase, pid/tid, finite non-negative timestamps), balanced flow-event
pairs, kernel slices landing on named tracks, and the failure-instant
marker a partial trace must carry.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..formats import CHROME_TRACE_FORMAT, finite
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []

_KNOWN_PHASES = frozenset("BEXiIMsftPNODCbnevRcS(")


def _events(doc: Mapping[str, Any]) -> list[Any]:
    events = doc.get("traceEvents")
    return events if isinstance(events, list) else []


@rule(
    "T101",
    severity=Severity.ERROR,
    pack="chrome",
    title="chrome trace must be the JSON-object form with a traceEvents array",
    requires=("chrome_doc",),
    hint="the exporter writes {'traceEvents': [...], 'displayTimeUnit': "
    "..., 'otherData': {...}}; the bare array form carries no metadata",
)
def check_shape(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        yield Finding(
            f"traceEvents is {type(events).__name__ if events is not None else None}"
            ", expected an array of event objects",
            location="traceEvents",
        )
        return
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            yield Finding(
                f"traceEvents[{i}] is {type(ev).__name__}, expected an object",
                location=f"traceEvents[{i}]",
            )


@rule(
    "T102",
    severity=Severity.ERROR,
    pack="chrome",
    title="chrome trace must carry the exporter format marker",
    requires=("chrome_doc",),
    hint=f"otherData.format must be {CHROME_TRACE_FORMAT!r} so tooling "
    "can recognize (and re-lint) exported documents",
)
def check_format_marker(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    other = doc.get("otherData")
    if not isinstance(other, Mapping):
        yield Finding(
            "otherData is missing or not an object", location="otherData"
        )
        return
    fmt = other.get("format")
    if fmt != CHROME_TRACE_FORMAT:
        yield Finding(
            f"otherData.format is {fmt!r}, expected {CHROME_TRACE_FORMAT!r}",
            location="otherData.format",
        )


@rule(
    "T103",
    severity=Severity.ERROR,
    pack="chrome",
    title="chrome trace events must be structurally valid",
    requires=("chrome_doc",),
    hint="every event needs a known ph and an integer pid; duration "
    "events (ph 'X') need finite non-negative ts and dur in microseconds",
)
def check_events(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    for i, ev in enumerate(_events(doc)):
        if not isinstance(ev, Mapping):
            continue  # T101 reports the shape problem
        loc = f"traceEvents[{i}]"
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            yield Finding(f"ph is {ph!r}, not a known phase", location=loc)
        pid = ev.get("pid")
        if isinstance(pid, bool) or not isinstance(pid, int):
            yield Finding(f"pid is {pid!r}, expected an integer", location=loc)
        if ph == "M":
            continue  # metadata events carry no timestamps
        ts = ev.get("ts")
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            yield Finding(f"ts is {ts!r}, expected a number", location=loc)
        elif finite(ts) is None or ts < 0:
            yield Finding(
                f"ts is {ts!r}, expected finite and non-negative", location=loc
            )
        if ph == "X":
            dur = ev.get("dur")
            if isinstance(dur, bool) or not isinstance(dur, (int, float)):
                yield Finding(
                    f"dur is {dur!r}, expected a number", location=loc
                )
            elif finite(dur) is None or dur < 0:
                yield Finding(
                    f"dur is {dur!r}, expected finite and non-negative",
                    location=loc,
                )


@rule(
    "T104",
    severity=Severity.ERROR,
    pack="chrome",
    title="chrome trace flow events must come in matched s/f pairs",
    requires=("chrome_doc",),
    hint="each flow start (ph 's') needs exactly one finish (ph 'f') "
    "with the same id at ts >= the start; unpaired arrows render as "
    "dangling or vanish entirely",
)
def check_flow_pairs(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    starts: dict[object, float] = {}  # as given: an int too big for a float still compares
    finishes: dict[object, float] = {}
    for ev in _events(doc):
        if not isinstance(ev, Mapping):
            continue
        ph = ev.get("ph")
        if ph not in ("s", "f"):
            continue
        fid = ev.get("id")
        ts = ev.get("ts")
        if fid is None or not isinstance(ts, (int, float)):
            continue  # T103 reports the structural problem
        if isinstance(fid, (list, dict)):
            yield Finding(f"flow id {fid!r} is not a scalar", location="traceEvents")
            continue
        table = starts if ph == "s" else finishes
        if fid in table:
            yield Finding(
                f"duplicate flow {'start' if ph == 's' else 'finish'} "
                f"for id {fid!r}",
                location="traceEvents",
            )
        table[fid] = ts
    for fid, ts in starts.items():
        if fid not in finishes:
            yield Finding(
                f"flow id {fid!r} has a start but no finish",
                location="traceEvents",
            )
        elif finishes[fid] < ts:
            yield Finding(
                f"flow id {fid!r} finishes at {finishes[fid]} before its "
                f"start at {ts}",
                location="traceEvents",
            )
    for fid in finishes:
        if fid not in starts:
            yield Finding(
                f"flow id {fid!r} has a finish but no start",
                location="traceEvents",
            )


@rule(
    "T105",
    severity=Severity.WARNING,
    pack="chrome",
    title="chrome trace slices should land on named tracks",
    requires=("chrome_doc",),
    hint="the exporter emits a thread_name metadata event per GPU and "
    "link lane; a slice on an undeclared tid renders on an anonymous row",
)
def check_named_tracks(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    named: set[object] = set()
    for ev in _events(doc):
        if (
            isinstance(ev, Mapping)
            and ev.get("ph") == "M"
            and ev.get("name") == "thread_name"
            and not isinstance(ev.get("tid"), (list, dict))
        ):
            named.add(ev.get("tid"))
    reported: set[object] = set()
    for i, ev in enumerate(_events(doc)):
        if not isinstance(ev, Mapping) or ev.get("ph") != "X":
            continue
        tid = ev.get("tid")
        if isinstance(tid, (list, dict)):
            yield Finding(
                f"slice tid {tid!r} is not a track id",
                location=f"traceEvents[{i}]",
            )
        elif tid not in named and tid not in reported:
            reported.add(tid)
            yield Finding(
                f"slice tid {tid!r} has no thread_name metadata event",
                location=f"traceEvents[{i}]",
            )


@rule(
    "T106",
    severity=Severity.WARNING,
    pack="chrome",
    title="partial chrome trace should mark the failure instant",
    requires=("chrome_doc",),
    hint="exports of partial fault traces (otherData.completed false) "
    "carry a global instant event (ph 'i', cat 'failure') at the "
    "fail-stop time; without it the timeline just ends unexplained",
)
def check_failure_marker(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.chrome_doc
    assert doc is not None
    other = doc.get("otherData")
    if not isinstance(other, Mapping) or other.get("completed") is not False:
        return
    for ev in _events(doc):
        if (
            isinstance(ev, Mapping)
            and ev.get("ph") == "i"
            and ev.get("cat") == "failure"
        ):
            return
    yield Finding(
        "otherData.completed is false but no failure instant event "
        "(ph 'i', cat 'failure') is present",
        location="traceEvents",
    )
