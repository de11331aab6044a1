"""Happens-before report rules (``H0xx``): ``repro.hbreport/v1`` hygiene.

``repro sanitize --json`` emits a happens-before analysis report; CI
checks such reports in as artifacts next to the graph/schedule/trace
triples they describe.  These rules keep a checked-in report honest:
the format marker and document shape must be right, every finding must
use the analyzer's fixed kind/severity taxonomy, witness steps must
name both an event and the edge kind that orders it, the summary
counters must agree with the findings list — and, the one that gates
CI, a report that *records* unresolved errors (deadlocks, races,
linearization violations) is itself an error: committed artifacts must
be clean.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..formats import HBREPORT_FORMAT
from ..sanitize.api import FINDING_KINDS
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []

_MODEL_KEYS = ("overlap_launch", "send_blocking", "max_streams", "data_wait")


def _findings(doc: Mapping[str, Any]) -> list[Any]:
    raw = doc.get("findings")
    return raw if isinstance(raw, list) else []


@rule(
    "H001",
    severity=Severity.ERROR,
    pack="hb",
    title="hb report must carry the hbreport format marker and shape",
    requires=("hb_doc",),
    hint=f"repro sanitize --json emits format {HBREPORT_FORMAT!r} with "
    "model, stats, findings and summary sections",
)
def check_format(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.hb_doc
    assert doc is not None
    fmt = doc.get("format")
    if fmt != HBREPORT_FORMAT:
        yield Finding(
            f"format is {fmt!r}, expected {HBREPORT_FORMAT!r}",
            location="format",
        )
    for key, want in (
        ("model", Mapping),
        ("stats", Mapping),
        ("findings", list),
        ("summary", Mapping),
    ):
        value = doc.get(key)
        if not isinstance(value, want):
            yield Finding(
                f"{key} is {type(value).__name__}, expected "
                f"{'an object' if want is Mapping else 'an array'}",
                location=key,
            )


@rule(
    "H002",
    severity=Severity.ERROR,
    pack="hb",
    title="hb findings must use the analyzer's kind/severity taxonomy",
    requires=("hb_doc",),
    hint="kinds and their severities are fixed by "
    "repro.sanitize.api.FINDING_KINDS; anything else means the report "
    "was not produced by the analyzer (or was hand-edited)",
)
def check_finding_taxonomy(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.hb_doc
    assert doc is not None
    for i, entry in enumerate(_findings(doc)):
        where = f"findings[{i}]"
        if not isinstance(entry, Mapping):
            yield Finding(
                f"{where} is {type(entry).__name__}, expected an object",
                location=where,
            )
            continue
        kind = entry.get("kind")
        severity = entry.get("severity")
        message = entry.get("message")
        if not isinstance(kind, str) or kind not in FINDING_KINDS:
            yield Finding(
                f"{where} has unknown kind {kind!r}", location=where
            )
        elif severity != FINDING_KINDS[kind]:
            # also catches severities outside {error, warning, info}:
            # the taxonomy maps every kind to exactly one of them
            yield Finding(
                f"{where} ({kind}) has severity {severity!r}, the "
                f"analyzer always emits {FINDING_KINDS[kind]!r}",
                location=where,
            )
        if not isinstance(message, str) or not message:
            yield Finding(
                f"{where} has no message", location=where
            )


@rule(
    "H003",
    severity=Severity.ERROR,
    pack="hb",
    title="a checked-in hb report must not record unresolved errors",
    requires=("hb_doc",),
    hint="the report says the analyzed schedule deadlocks or races; "
    "fix the schedule (or the engine) and regenerate — committing a "
    "dirty report defeats the CI gate",
)
def check_clean(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.hb_doc
    assert doc is not None
    for i, entry in enumerate(_findings(doc)):
        if not isinstance(entry, Mapping):
            continue  # H002 reports the shape problem
        if entry.get("severity") == "error":
            kind = entry.get("kind", "?")
            message = entry.get("message", "")
            yield Finding(
                f"report records an unresolved {kind} error: {message}",
                location=f"findings[{i}]",
            )


@rule(
    "H004",
    severity=Severity.WARNING,
    pack="hb",
    title="hb report internals must be consistent",
    requires=("hb_doc",),
    hint="summary counters disagreeing with the findings list, "
    "negative stats or malformed witness steps mean the report was "
    "post-processed by something other than the analyzer",
)
def check_consistency(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.hb_doc
    assert doc is not None
    stats = doc.get("stats")
    if isinstance(stats, Mapping):
        for key, value in sorted(stats.items()):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                yield Finding(
                    f"stats[{key!r}] is {value!r}, expected a "
                    "non-negative integer",
                    location=f"stats.{key}",
                )
    counted = {"error": 0, "warning": 0, "info": 0}
    for i, entry in enumerate(_findings(doc)):
        if not isinstance(entry, Mapping):
            continue
        severity = entry.get("severity")
        if isinstance(severity, str) and severity in counted:
            counted[severity] += 1
        witness = entry.get("witness", [])
        if not isinstance(witness, list):
            yield Finding(
                f"findings[{i}].witness is {type(witness).__name__}, "
                "expected an array of steps",
                location=f"findings[{i}].witness",
            )
            continue
        for j, step in enumerate(witness):
            if (
                not isinstance(step, Mapping)
                or not isinstance(step.get("event"), str)
                or not isinstance(step.get("edge"), str)
            ):
                yield Finding(
                    f"findings[{i}].witness[{j}] must be an object with "
                    "event and edge",
                    location=f"findings[{i}].witness[{j}]",
                )
    summary = doc.get("summary")
    if isinstance(summary, Mapping):
        for key, label in (
            ("errors", "error"),
            ("warnings", "warning"),
            ("info", "info"),
        ):
            declared = summary.get(key)
            if declared != counted[label]:
                yield Finding(
                    f"summary.{key} is {declared!r} but the findings "
                    f"list contains {counted[label]}",
                    location=f"summary.{key}",
                )


@rule(
    "H005",
    severity=Severity.INFO,
    pack="hb",
    title="non-default analysis models are worth knowing about",
    requires=("hb_doc",),
    hint="data_wait=false audits the schedule for a backend with no "
    "per-message synchronization — expected to flag every cross-GPU "
    "edge; make sure that was intentional",
)
def check_model_flags(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.hb_doc
    assert doc is not None
    model = doc.get("model")
    if not isinstance(model, Mapping):
        return  # H001 reports the shape problem
    for key in _MODEL_KEYS:
        if key not in model:
            yield Finding(f"model omits {key}", location=f"model.{key}")
    if model.get("data_wait") is False:
        yield Finding(
            "report was produced with data_wait=false (no-sync backend "
            "audit mode)",
            location="model.data_wait",
        )
