"""Content-addressed on-disk stores: sweep results and schedules.

Layout (one JSON document per entry, sharded by key prefix to keep
directories small)::

    <root>/v<schema>/<key[:2]>/<key>.json

``<root>`` resolves, in order, to an explicit ``cache_dir`` argument,
the ``REPRO_CACHE_DIR`` environment variable, then
``~/.cache/repro-hios``.  Every entry is a self-describing document
whose ``format`` marker names its species; the two stores sharing the
tree are

* :class:`ResultCache` (``repro.cache/v1``) — numeric sweep-unit
  payloads, e.g. ``{"latency": 12.5}``;
* :class:`~repro.sweep.schedcache.ScheduleCache`
  (``repro.schedcache/v1``) — whole schedules keyed by the profile
  content hash (see :mod:`repro.sweep.schedcache`).

Both are thin subclasses of :class:`ContentStore`, which owns the
defensive read/atomic write discipline: an entry that is unreadable,
malformed JSON, the wrong format/schema, whose recorded key disagrees
with its filename, or whose payload has a problem
(:meth:`ContentStore.payload_problems`, the check lint rule C005
reports) is *discarded* (best-effort unlink) and treated as a miss — a
corrupt cache can cost recomputation but never poisons results or
crashes a run.  Writes are atomic (temp file + rename) so interrupted
runs leave no half-written entries and simply resume from what
completed.  Content keys never collide across the two formats because
each store's key material embeds its format marker.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..formats import CACHE_FORMAT, finite
from .keying import CACHE_SCHEMA_VERSION

__all__ = ["CACHE_FORMAT", "ContentStore", "ResultCache", "default_cache_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-hios``."""
    env = os.environ.get(_ENV_VAR, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hios"


class ContentStore:
    """Get/put of JSON payloads under content-addressed keys.

    Subclasses pin the document ``format`` marker and override
    :meth:`_field_problems` with their species' payload shape; the
    base class owns sharding, discard-on-corrupt reads, atomic writes
    and the tree-wide maintenance operations (:meth:`stats`,
    :meth:`clear`), which report across *all* formats sharing the tree.
    """

    #: document format marker; subclasses override
    format: str = CACHE_FORMAT

    def __init__(self, cache_dir: str | os.PathLike[str] | None = None) -> None:
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _shard(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        return self._shard() / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Payload for ``key``, or ``None`` (miss or discarded entry)."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            self.misses += 1
            return None
        payload = self._valid_payload(doc, key)
        if payload is None:
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        key: str,
        payload: Mapping[str, Any],
        *,
        kind: str,
        algorithm: str,
        meta: Mapping[str, float] | None = None,
    ) -> None:
        """Atomically persist one entry (overwrites any existing one)."""
        doc = {
            "format": self.format,
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "algorithm": algorithm,
            "payload": dict(payload),
            "meta": dict(meta or {}),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            self._discard(Path(tmp))
            raise

    def _valid_payload(self, doc: Any, key: str) -> dict[str, Any] | None:
        """The payload of an entry stored under ``key``, else ``None``."""
        if not isinstance(doc, dict):
            return None
        if doc.get("format") != self.format:
            return None
        version = doc.get("schema_version")
        if type(version) is not int or version != CACHE_SCHEMA_VERSION:  # not True, not 1.0
            return None
        if doc.get("key") != key:
            return None
        payload: dict[str, Any] = doc.get("payload")  # a JSON object if it has no problem
        if next(self.payload_problems(payload), None) is not None:
            return None
        return payload

    @classmethod
    def payload_problems(cls, payload: object) -> Iterator[tuple[str, str]]:
        """``(location, message)`` for each way ``payload`` misses this
        store's shape: a non-empty mapping whose fields pass
        :meth:`_field_problems`.  A read discards an entry with any
        problem; lint rule C005 reports each one."""
        if not isinstance(payload, Mapping) or not payload:
            kind = type(payload).__name__ if payload is not None else None
            yield "payload", f"payload is {kind}, expected a non-empty mapping"
        else:
            yield from cls._field_problems(payload)

    @classmethod
    def _field_problems(cls, payload: Mapping[Any, Any]) -> Iterator[tuple[str, str]]:
        """Species-specific payload fields; subclasses override."""
        return iter(())

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing cleanup is fine
            pass

    def _entries(self) -> Iterator[Path]:
        shard = self._shard()
        if not shard.is_dir():
            return
        yield from sorted(shard.glob("*/*.json"))

    def stats(self) -> dict[str, Any]:
        """On-disk footprint of the current schema's shard, broken down
        by entry kind and document format (all species in the tree)."""
        entries = 0
        total_bytes = 0
        by_kind: dict[str, int] = {}
        by_format: dict[str, int] = {}
        for path in self._entries():
            entries += 1
            try:
                total_bytes += path.stat().st_size
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                kind = doc.get("kind", "?")
                fmt = doc.get("format", "?")
            except (OSError, ValueError, AttributeError):  # not a JSON object
                kind = "corrupt"
                fmt = "corrupt"
            by_kind[str(kind)] = by_kind.get(str(kind), 0) + 1
            by_format[str(fmt)] = by_format.get(str(fmt), 0) + 1
        return {
            "cache_dir": str(self.root),
            "schema_version": CACHE_SCHEMA_VERSION,
            "entries": entries,
            "bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
            "by_format": dict(sorted(by_format.items())),
        }

    def clear(self, kind: str | None = None) -> int:
        """Delete entries of the current schema; returns the count.

        ``kind`` restricts the purge to entries of one kind (e.g.
        ``"schedule"`` or ``"latency"``); unreadable entries match the
        pseudo-kind ``"corrupt"``.  ``None`` clears everything.
        """
        removed = 0
        for path in self._entries():
            if kind is not None:
                try:
                    with open(path, encoding="utf-8") as fh:
                        entry_kind = str(json.load(fh).get("kind", "?"))
                except (OSError, ValueError, AttributeError):  # not a JSON object
                    entry_kind = "corrupt"
                if entry_kind != kind:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover
                pass
        return removed


class ResultCache(ContentStore):
    """Sweep-unit result store (``repro.cache/v1``): payloads are
    non-empty finite-number mappings like ``{"latency": 12.5}``."""

    format = CACHE_FORMAT

    @classmethod
    def _field_problems(cls, payload: Mapping[Any, Any]) -> Iterator[tuple[str, str]]:
        for name, value in payload.items():
            if not isinstance(name, str):
                yield "payload", f"payload field name {name!r} is not a string"
            elif finite(value) is None:
                yield f"payload.{name}", f"payload[{name!r}] is {value!r}, expected a finite number"
