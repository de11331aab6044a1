"""Diagnostics: the currency of the static verifier.

A :class:`Diagnostic` is one finding — a rule ID (``S001``), a severity,
a human-readable message, an optional location (``op:conv1``,
``gpu:2/stage:3``, ``edge:a->b``, ``spec:1``) and an optional fix hint.
A :class:`LintReport` is the ordered collection of findings one
:class:`~repro.lint.framework.Linter` run produced; unlike the legacy
``validate()`` entry points it never raises on the first problem — it
returns *all* of them and lets the caller decide (CLI exit code, raise,
print).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["Severity", "Diagnostic", "LintReport"]


class Severity(enum.Enum):
    """Finding severity; ``ERROR`` findings make a subject invalid."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule against one subject."""

    rule: str
    severity: Severity
    message: str
    location: str | None = None
    hint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.location is not None:
            out["location"] = self.location
        if self.hint is not None:
            out["hint"] = self.hint
        return out

    def format(self) -> str:
        """One-line rendering, e.g. ``error[S001] op:a: message``."""
        where = f" {self.location}" if self.location else ""
        return f"{self.severity}[{self.rule}]{where}: {self.message}"


class LintReport:
    """All findings of one lint run, ordered by severity then rule ID."""

    def __init__(self, diagnostics: tuple[Diagnostic, ...] = ()) -> None:
        self.diagnostics: tuple[Diagnostic, ...] = tuple(
            sorted(
                diagnostics,
                key=lambda d: (d.severity.rank, d.rule, d.location or "", d.message),
            )
        )

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def rule_ids(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def merged(self, other: "LintReport") -> "LintReport":
        return LintReport(self.diagnostics + other.diagnostics)

    # ------------------------------------------------------------------
    def raise_errors(self, exc_type: type[Exception], prefix: str = "") -> None:
        """Raise ``exc_type`` carrying every error message, if any.

        This is the adapter the legacy ``validate()`` entry points use:
        the linter collects everything, the wrapper raises once.
        """
        errors = self.errors
        if not errors:
            return
        joined = "; ".join(d.message for d in errors)
        raise exc_type(f"{prefix}{joined}" if prefix else joined)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "ok": self.ok,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        """Human-readable listing with a one-line summary."""
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LintReport(errors={len(self.errors)}, warnings={len(self.warnings)}, "
            f"infos={len(self.infos)})"
        )
