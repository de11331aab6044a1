"""Stable content-addressed keys for sweep work units.

A cache key is the SHA-256 of the *canonical JSON* encoding of
everything that determines a unit's result: the workload spec (after
per-algorithm canonicalization, see :mod:`.units`), the algorithm name,
the schedule keyword arguments, the unit kind and the cache schema
version.  Canonical JSON sorts keys, uses minimal separators and
rejects NaN/Infinity, so two semantically identical descriptions always
hash to the same key on every platform and Python version.

``CACHE_SCHEMA_VERSION`` is part of every key: bumping it invalidates
the whole on-disk cache at once.  Bump it whenever the meaning of a
cached payload changes — a scheduler behaviour change that alters
results, a new field in the payload that readers rely on, or a change
to the canonicalization rules themselves.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

__all__ = ["CACHE_SCHEMA_VERSION", "canonical_json", "canonical_object", "content_key"]

#: Bump to invalidate every existing cache entry (see module docstring).
CACHE_SCHEMA_VERSION = 1


#: ``json.dumps`` with these options would build a new encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return _CANONICAL.encode(payload)


def canonical_object(members: Mapping[str, str]) -> str:
    """The canonical JSON of an object whose member values are already
    canonical JSON texts — exactly ``canonical_json`` of the decoded
    object, so a caller can encode (and memoize) members separately."""
    return "{" + ",".join(
        f"{canonical_json(name)}:{text}" for name, text in sorted(members.items())
    ) + "}"


def content_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
