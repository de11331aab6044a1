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
finite latency for schedule entries).  C005 renders the stores' own
payload check (:meth:`~repro.sweep.cache.ContentStore.payload_problems`),
so a payload the readers keep is one C005 passes.
"""

from __future__ import annotations

import string
from typing import Iterator

from ..formats import CACHE_FORMAT, SCHED_CACHE_FORMAT
from ..sweep.cache import ResultCache
from ..sweep.keying import CACHE_SCHEMA_VERSION
from ..sweep.schedcache import SCHED_CACHE_KIND, ScheduleCache
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
    store = ScheduleCache if doc.get("format") == SCHED_CACHE_FORMAT else ResultCache
    for location, message in store.payload_problems(doc.get("payload")):
        yield Finding(message, location=location)


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
