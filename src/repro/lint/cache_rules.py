"""Cache-document rules (``C0xx``): content-store entry hygiene.

The :mod:`repro.sweep` stores persist two species of content-addressed
JSON documents in one sharded tree: work-unit results
(``format: "repro.cache/v1"``, numeric payloads) and whole schedules
(``format: "repro.schedcache/v1"``, a schedule document plus its
latency).  The readers already *tolerate* malformed entries — they
discard them and recompute — but a tree full of silently discarded
entries is a warm cache that never hits.  These rules make the discard
reasons visible: a wrong format marker, a missing or stale schema
version, a key that cannot be a SHA-256 digest or that disagrees with
the entry's filename, and payloads that fail their format's shape
(finite-number mappings for sweep results; a schedule mapping and a
finite latency for schedule entries).
"""

from __future__ import annotations

import string
from typing import Any, Iterator, Mapping

from ..formats import CACHE_FORMAT, SCHED_CACHE_FORMAT, finite
from ..sweep.keying import CACHE_SCHEMA_VERSION
from ..sweep.schedcache import SCHED_CACHE_KIND
from ..sweep.units import UNIT_KINDS
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []

_HEX_DIGITS = frozenset(string.hexdigits.lower())

_CACHE_FORMATS = (CACHE_FORMAT, SCHED_CACHE_FORMAT)


def _is_sha256_hex(key: str) -> bool:
    return len(key) == 64 and all(c in _HEX_DIGITS for c in key)


@rule(
    "C001",
    severity=Severity.ERROR,
    pack="cache",
    title="cache entry must carry a known cache format marker",
    requires=("cache_doc",),
    hint=f"the content stores only read documents with format "
    f"{CACHE_FORMAT!r} or {SCHED_CACHE_FORMAT!r}; anything else is "
    f"discarded as corrupt",
)
def check_format(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    fmt = doc.get("format")
    if fmt not in _CACHE_FORMATS:
        yield Finding(
            f"format is {fmt!r}, expected one of {_CACHE_FORMATS}",
            location="format",
        )


@rule(
    "C002",
    severity=Severity.ERROR,
    pack="cache",
    title="cache entry must declare an integer schema version",
    requires=("cache_doc",),
    hint="schema_version gates cache invalidation; an entry without a "
    "positive integer version is discarded on read",
)
def check_schema_version_valid(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    version = doc.get("schema_version")
    if version is None:
        yield Finding("schema_version is missing", location="schema_version")
    elif isinstance(version, bool) or not isinstance(version, int) or version < 1:
        yield Finding(
            f"schema_version is {version!r}, expected a positive integer",
            location="schema_version",
        )


@rule(
    "C003",
    severity=Severity.WARNING,
    pack="cache",
    title="cache entry schema version should be current",
    requires=("cache_doc",),
    hint="entries from other schema versions are never hits; run "
    "`repro cache clear` to reclaim the space",
)
def check_schema_version_current(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    version = doc.get("schema_version")
    if (
        isinstance(version, int)
        and not isinstance(version, bool)
        and version >= 1
        and version != CACHE_SCHEMA_VERSION
    ):
        yield Finding(
            f"schema_version {version} is not the current "
            f"{CACHE_SCHEMA_VERSION}",
            location="schema_version",
        )


@rule(
    "C004",
    severity=Severity.ERROR,
    pack="cache",
    title="cache key must be a SHA-256 hex digest",
    requires=("cache_doc",),
    hint="keys are lowercase 64-character SHA-256 hex digests of the "
    "canonical unit description; anything else can never be looked up",
)
def check_key(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    key = doc.get("key")
    if not isinstance(key, str) or not _is_sha256_hex(key):
        yield Finding(
            f"key is {key!r}, expected 64 lowercase hex characters",
            location="key",
        )


def _check_result_payload(payload: Mapping[str, Any]) -> Iterator[Finding]:
    """Sweep-result payloads: non-empty finite-number mappings."""
    for name, value in payload.items():
        if not isinstance(name, str):
            yield Finding(
                f"payload field name {name!r} is not a string",
                location="payload",
            )
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            yield Finding(
                f"payload[{name!r}] is {value!r}, expected a finite number",
                location=f"payload.{name}",
            )
        elif finite(value) is None:
            yield Finding(
                f"payload[{name!r}] is {value!r} (non-finite)",
                location=f"payload.{name}",
            )


def _check_schedule_payload(payload: Mapping[str, Any]) -> Iterator[Finding]:
    """Schedule payloads: a schedule document plus a finite latency."""
    schedule = payload.get("schedule")
    if not isinstance(schedule, Mapping):
        yield Finding(
            f"payload.schedule is "
            f"{type(schedule).__name__ if schedule is not None else None}, "
            "expected a schedule mapping",
            location="payload.schedule",
        )
    elif not isinstance(schedule.get("gpus"), list):
        yield Finding(
            "payload.schedule has no 'gpus' list",
            location="payload.schedule.gpus",
        )
    latency = payload.get("latency")
    if isinstance(latency, bool) or not isinstance(latency, (int, float)):
        yield Finding(
            f"payload.latency is {latency!r}, expected a finite number",
            location="payload.latency",
        )
    elif finite(latency) is None:
        yield Finding(
            f"payload.latency is {latency!r} (non-finite)",
            location="payload.latency",
        )


@rule(
    "C005",
    severity=Severity.ERROR,
    pack="cache",
    title="cache payload must match its format's shape",
    requires=("cache_doc",),
    hint="sweep-result payloads are finite-number mappings "
    "(e.g. {'latency': ...}); schedule payloads carry a schedule "
    "document and a finite latency; the readers reject anything else",
)
def check_payload(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    payload = doc.get("payload")
    if not isinstance(payload, Mapping) or not payload:
        yield Finding(
            f"payload is {type(payload).__name__ if payload is not None else None}"
            ", expected a non-empty mapping",
            location="payload",
        )
        return
    if doc.get("format") == SCHED_CACHE_FORMAT:
        yield from _check_schedule_payload(payload)
    else:
        yield from _check_result_payload(payload)


@rule(
    "C006",
    severity=Severity.WARNING,
    pack="cache",
    title="cache entry kind should match its format",
    requires=("cache_doc",),
    hint=f"sweep entries use unit kinds ({', '.join(UNIT_KINDS)}); "
    f"schedule entries use {SCHED_CACHE_KIND!r}; an unknown kind "
    "suggests the entry was written by a newer or foreign tool",
)
def check_kind(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.cache_doc
    assert doc is not None
    kind = doc.get("kind")
    if kind is None:
        return
    if doc.get("format") == SCHED_CACHE_FORMAT:
        if kind != SCHED_CACHE_KIND:
            yield Finding(
                f"kind is {kind!r}, expected {SCHED_CACHE_KIND!r} for a "
                "schedule entry",
                location="kind",
            )
    elif kind not in UNIT_KINDS:
        yield Finding(
            f"kind is {kind!r}, not one of {UNIT_KINDS}",
            location="kind",
        )
