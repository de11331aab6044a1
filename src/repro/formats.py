"""The table of versioned JSON document formats.

:func:`read_document` reads a file through :data:`FORMATS`; every
failure on the way to a parsed object is one :class:`DocumentError`
naming the path and the cause once.  This module imports nothing from
:mod:`repro`: owner modules and lint packs import their markers from
here, and parsers are resolved by name when a document is parsed.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pkgutil import resolve_name
from typing import Any, Iterable, Mapping

__all__ = [
    "CACHE_FORMAT", "CHROME_TRACE_FORMAT", "GRAPH_FORMAT", "HBREPORT_FORMAT", "SCHED_CACHE_FORMAT",
    "SERVE_CONFIG_FORMAT", "SERVE_REPORT_FORMAT", "TRACE_FORMAT", "FORMATS", "Document",
    "DocumentError", "Format", "classify", "read_document", "scalar_fields",
]

GRAPH_FORMAT = "repro.opgraph/v1"
TRACE_FORMAT = "repro.trace/v1"
CACHE_FORMAT = "repro.cache/v1"
SCHED_CACHE_FORMAT = "repro.schedcache/v1"
SERVE_CONFIG_FORMAT = "repro.serve/v1"
SERVE_REPORT_FORMAT = "repro.servereport/v1"
HBREPORT_FORMAT = "repro.hbreport/v1"
CHROME_TRACE_FORMAT = "repro.chrometrace/v1"


class DocumentError(ValueError):
    """A file a command cannot use; the message names the path and the cause."""


@dataclass(frozen=True)
class Format:
    """One row: ``kind`` names the format in messages; ``marker`` is its
    top-level ``format`` value; ``shape`` the keys that recognize it
    without a known marker; ``subject`` the :class:`~repro.lint.LintContext`
    field it fills; ``parser`` and ``error`` name the parser and its typed
    error as ``module:qualname`` (``None``: linted as a raw mapping)."""

    kind: str
    marker: str | None
    shape: tuple[str, ...]
    subject: str
    parser: str | None = None
    error: str | None = None

    @property
    def label(self) -> str:  # how help text and messages name the format
        return self.marker or f"{self.kind} ({'/'.join(self.shape)})"


#: Markers are looked up first, then shapes in row order: the schedule
#: document (the paper's scheduler-to-runtime hand-off) has no marker,
#: the Chrome export keeps its own in ``otherData``, and cache entries
#: may predate theirs.
FORMATS: tuple[Format, ...] = (
    Format("graph", GRAPH_FORMAT, (), "graph",
           "repro.core.graphio:graph_from_dict", "repro.core.graph:GraphError"),
    Format("trace", TRACE_FORMAT, (), "trace",
           "repro.substrate.engine:ExecutionTrace.from_dict",
           "repro.substrate.engine:EngineError"),
    Format("cache entry", CACHE_FORMAT, ("key", "payload"), "cache_doc"),
    Format("schedule-cache entry", SCHED_CACHE_FORMAT, (), "cache_doc"),
    Format("serve config", SERVE_CONFIG_FORMAT, (), "serve_doc",
           "repro.serve.config:ServeConfig.from_dict",
           "repro.serve.config:ServeConfigError"),
    Format("serve report", SERVE_REPORT_FORMAT, (), "serve_report_doc"),
    Format("hb report", HBREPORT_FORMAT, (), "hb_doc"),
    Format("Chrome trace_event", None, ("traceEvents",), "chrome_doc"),
    Format("schedule", None, ("num_gpus", "gpus"), "schedule_doc",
           "repro.core.schedule:Schedule.from_dict",
           "repro.core.schedule:ScheduleError"),
)


#: a dataclass field annotation -> the JSON values that field takes
_JSON_TYPES: dict[str, tuple[Any, str]] = {
    "int": (int, "an integer"), "float": ((int, float), "a number"),
    "str": (str, "a string"), "bool": (bool, "a boolean"),
}


def scalar_fields(cls: Any, doc: object, error: type[Exception], where: str) -> dict[str, Any]:
    """The scalar fields of dataclass ``cls`` that ``doc`` sets (and the
    required ones), each a JSON value of its annotated type (an integer
    counts as a float, a bool only as a bool), else ``error``."""
    if not isinstance(doc, Mapping):
        raise error(f"{where} is {doc!r}, expected an object")
    out: dict[str, Any] = {}
    for f in fields(cls):
        kinds, expected = _JSON_TYPES.get(f.type, (None, ""))
        if kinds is None or (f.name not in doc and f.default is not MISSING):
            continue
        value = doc.get(f.name)
        if not isinstance(value, kinds) or (isinstance(value, bool) and f.type != "bool"):
            raise error(f"{where} {f.name} is {value!r}, expected {expected}")
        out[f.name] = value
    return out


def classify(data: object) -> Format | None:
    """The format of a loaded JSON value: by marker, else by shape."""
    if not isinstance(data, dict):
        return None
    marker = data.get("format")
    for fmt in FORMATS:
        if fmt.marker is not None and fmt.marker == marker:
            return fmt
    for fmt in FORMATS:
        if fmt.shape and all(key in data for key in fmt.shape):
            return fmt
    return None


@dataclass(frozen=True)
class Document:
    """A classified JSON document read from ``path``."""

    path: str
    format: Format
    data: dict[str, Any]

    def parse(self) -> Any:
        """The parsed object; the parser's typed error is a DocumentError."""
        fmt = self.format
        assert fmt.parser and fmt.error, f"{fmt.kind} documents have no parser"
        parser, error = resolve_name(fmt.parser), resolve_name(fmt.error)
        try:
            return parser(self.data)
        except error as exc:
            label = f"malformed {fmt.kind} document"
            cause = str(exc).removeprefix(f"{label}: ")
            raise DocumentError(f"{label} {self.path}: {cause}") from exc


def read_document(path: str, accept: Iterable[str] | None = None) -> Document:
    """Read and classify ``path``; ``accept`` lists the kinds taken (default: all)."""
    rows = [fmt for fmt in FORMATS if accept is None or fmt.kind in accept]
    expected = ", ".join(fmt.label for fmt in rows)
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON/encoding, too deep
        raise DocumentError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    fmt = classify(data)
    if fmt is None:
        raise DocumentError(f"cannot classify {path}: expected one of {expected}")
    if fmt not in rows:
        raise DocumentError(f"cannot use {path}: a {fmt.kind} document, not {expected}")
    return Document(path, fmt, data)
