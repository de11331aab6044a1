"""The rule framework: contexts, rules, the registry and the linter.

A :class:`Rule` is a pure function from a :class:`LintContext` to zero
or more :class:`Finding` values, tagged with a stable ID, a severity and
the *subjects* it needs (``graph``, ``schedule``, ``schedule_doc``,
``trace``, ``plan``, ``cache_doc``, ``chrome_doc``, ``serve_doc``,
``serve_report_doc``, ``hb_doc``).  The :class:`Linter` runs every
registered rule whose subjects the context provides and returns a
:class:`~repro.lint.diagnostics.LintReport` — it never raises on a
finding, so one run surfaces *every* problem at once.

All eight rule packs (:mod:`~repro.lint.graph_rules`,
:mod:`~repro.lint.schedule_rules`, :mod:`~repro.lint.trace_rules`,
:mod:`~repro.lint.fault_rules`, :mod:`~repro.lint.cache_rules`,
:mod:`~repro.lint.chrome_rules`, :mod:`~repro.lint.serve_rules`,
:mod:`~repro.lint.hb_rules`) register themselves at import time via
the :func:`rule` decorator; importing :mod:`repro.lint` loads every
registered pack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, TYPE_CHECKING

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from .diagnostics import Diagnostic, LintReport, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..substrate.engine import ExecutionTrace
    from ..substrate.faults import FaultPlan

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "Linter",
    "rule",
    "all_rules",
    "get_rule",
    "rule_catalog",
]

SUBJECTS = (
    "graph",
    "schedule",
    "schedule_doc",
    "trace",
    "plan",
    "cache_doc",
    "chrome_doc",
    "serve_doc",
    "serve_report_doc",
    "hb_doc",
)


@dataclass(frozen=True)
class Finding:
    """What a rule check yields; the linter stamps rule ID + severity."""

    message: str
    location: str | None = None
    hint: str | None = None


@dataclass(frozen=True)
class LintContext:
    """Everything a lint run may look at.

    Subjects are optional: a rule only runs when every subject it
    declares in ``requires`` is present.  The scalar fields are
    cross-cutting options: ``window`` is the Alg. 2 window bound ``w``
    (stage-width budget), ``num_gpus`` bounds GPU indices for fault
    plans linted without a schedule, ``horizon`` is the latest time a
    fault event can still fire (e.g. the predicted makespan), ``eps``
    is the float tolerance for trace causality arithmetic and
    ``fanout_threshold`` the out-degree above which a graph vertex is
    deemed suspicious.
    """

    graph: OpGraph | None = None
    schedule: Schedule | None = None
    schedule_doc: Mapping[str, Any] | None = None
    trace: "ExecutionTrace | None" = None
    plan: "FaultPlan | None" = None
    cache_doc: Mapping[str, Any] | None = None
    chrome_doc: Mapping[str, Any] | None = None
    serve_doc: Mapping[str, Any] | None = None
    serve_report_doc: Mapping[str, Any] | None = None
    hb_doc: Mapping[str, Any] | None = None
    window: int | None = None
    num_gpus: int | None = None
    horizon: float | None = None
    eps: float = 1e-6
    fanout_threshold: int = 16

    def has(self, subject: str) -> bool:
        if subject not in SUBJECTS:
            raise ValueError(f"unknown lint subject {subject!r}")
        return getattr(self, subject) is not None


CheckFn = Callable[[LintContext], Iterator[Finding]]


@dataclass(frozen=True, eq=False)
class Rule:
    """One registered rule: identity, severity, subjects and the check.

    A rule is its registry entry, so it compares and hashes by identity,
    which keeps a rule tuple cheap to hash as a cache key."""

    id: str
    severity: Severity
    pack: str
    title: str
    requires: tuple[str, ...]
    check: CheckFn
    hint: str | None = None

    def applicable(self, ctx: LintContext) -> bool:
        return all(ctx.has(subject) for subject in self.requires)

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        return [
            Diagnostic(
                rule=self.id,
                severity=self.severity,
                message=finding.message,
                location=finding.location,
                hint=finding.hint if finding.hint is not None else self.hint,
            )
            for finding in self.check(ctx)
        ]


_REGISTRY: dict[str, Rule] = {}


# The rule tuples linters run, built once per registry state: ``rule``
# clears both caches.
@functools.cache
def _registered() -> tuple[Rule, ...]:
    return tuple(sorted(_REGISTRY.values(), key=lambda r: r.id))


@functools.cache
def _narrowed(
    rules: tuple[Rule, ...], errors_only: bool, packs: tuple[str, ...] | None
) -> tuple[Rule, ...]:
    return tuple(
        r for r in rules
        if (not errors_only or r.severity is Severity.ERROR) and (packs is None or r.pack in packs)
    )


def rule(
    rule_id: str,
    *,
    severity: Severity,
    pack: str,
    title: str,
    requires: Iterable[str],
    hint: str | None = None,
) -> Callable[[CheckFn], CheckFn]:
    """Register a check function as a rule.  IDs must be unique."""

    def decorate(fn: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule ID {rule_id!r}")
        needs = tuple(requires)
        for subject in needs:
            if subject not in SUBJECTS:
                raise ValueError(f"rule {rule_id}: unknown subject {subject!r}")
        _REGISTRY[rule_id] = Rule(
            id=rule_id,
            severity=severity,
            pack=pack,
            title=title,
            requires=needs,
            check=fn,
            hint=hint,
        )
        _registered.cache_clear()
        _narrowed.cache_clear()
        return fn

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by ID."""
    return list(_registered())


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}") from None


def rule_catalog() -> list[dict[str, Any]]:
    """Serializable catalog of the full rule set (for ``repro lint --json``)."""
    return [
        {
            "id": r.id,
            "severity": str(r.severity),
            "pack": r.pack,
            "title": r.title,
            "requires": list(r.requires),
        }
        for r in all_rules()
    ]


@dataclass(frozen=True)
class Linter:
    """Runs a rule set against a context and returns every finding."""

    rules: tuple[Rule, ...] = field(default_factory=_registered)

    def errors_only(self) -> "Linter":
        """This linter narrowed to its error-severity rules — the fast
        feasibility core the ``validate()`` wrappers run."""
        return Linter(_narrowed(self.rules, True, None))

    def for_packs(self, *packs: str) -> "Linter":
        """This linter narrowed to the rules of ``packs``; composes with
        :meth:`errors_only` in either order."""
        return Linter(_narrowed(self.rules, False, packs))

    def run(self, ctx: LintContext) -> LintReport:
        diagnostics: list[Diagnostic] = []
        for r in self.rules:
            if r.applicable(ctx):
                diagnostics.extend(r.run(ctx))
        return LintReport(tuple(diagnostics))
