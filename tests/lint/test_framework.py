"""The diagnostic framework: rules, contexts, reports."""

import json

import pytest

from repro.core.graph import OpGraph
from repro.core.schedule import Schedule, Stage
from repro.lint import (
    Diagnostic,
    Finding,
    LintContext,
    Linter,
    Severity,
    all_rules,
    get_rule,
    rule_catalog,
)
from repro.lint.framework import SUBJECTS, rule


def diamond():
    g = OpGraph()
    for name in "abcd":
        g.add_operator(name, cost=1.0)
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    return g


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank

    def test_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.INFO) == "info"


class TestDiagnostic:
    def test_format(self):
        d = Diagnostic(
            rule="S001", severity=Severity.ERROR, message="boom", location="op:a"
        )
        assert d.format() == "error[S001] op:a: boom"

    def test_format_without_location(self):
        d = Diagnostic(rule="G001", severity=Severity.WARNING, message="hm")
        assert d.format() == "warning[G001]: hm"

    def test_to_dict_omits_absent_fields(self):
        d = Diagnostic(rule="T001", severity=Severity.INFO, message="m")
        assert d.to_dict() == {"rule": "T001", "severity": "info", "message": "m"}


class TestRegistry:
    def test_rule_count_and_packs(self):
        rules = all_rules()
        assert len(rules) >= 18
        packs = {r.pack for r in rules}
        assert packs == {
            "graph", "schedule", "trace", "faults", "cache", "chrome", "serve",
            "hb",
        }

    def test_rule_ids_unique_and_well_formed(self):
        ids = [r.id for r in all_rules()]
        assert len(ids) == len(set(ids))
        for rid in ids:
            assert rid[0] in "GSTFCVH" and rid[1:].isdigit() and len(rid) == 4

    def test_get_rule(self):
        assert get_rule("G001").pack == "graph"
        with pytest.raises(KeyError):
            get_rule("Z999")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @rule("G001", severity=Severity.INFO, pack="graph",
                  title="dup", requires=("graph",))
            def dup(ctx):
                return iter(())

    def test_unknown_subject_rejected(self):
        with pytest.raises(ValueError, match="unknown subject"):
            @rule("X999", severity=Severity.INFO, pack="graph",
                  title="bad", requires=("nonsense",))
            def bad(ctx):
                return iter(())

    def test_subjects_each_file_is_linted_by(self):
        """``repro lint`` lints every document outside the graph,
        schedule and trace on its own, and names a finding's file by its
        rule's last required subject."""
        from repro.formats import FORMATS

        combined = {"graph", "schedule", "schedule_doc", "trace", "plan"}
        standalone = {fmt.subject for fmt in FORMATS} - combined
        for r in all_rules():
            assert list(r.requires) == sorted(r.requires, key=SUBJECTS.index)
            if standalone & set(r.requires):
                assert len(r.requires) == 1, r.id

    def test_catalog_is_serializable(self):
        catalog = rule_catalog()
        assert len(catalog) == len(all_rules())
        json.dumps(catalog)  # must not raise
        for entry in catalog:
            assert set(entry) == {"id", "severity", "pack", "title", "requires"}
            assert all(s in SUBJECTS for s in entry["requires"])


class TestLintContext:
    def test_has(self):
        ctx = LintContext(graph=diamond())
        assert ctx.has("graph")
        assert not ctx.has("schedule")

    def test_rules_skip_missing_subjects(self):
        report = Linter().run(LintContext())  # empty context: nothing applies
        assert report.diagnostics == ()


class TestLinter:
    def test_collects_all_findings_not_first(self):
        g = diamond()
        g.add_operator("iso1", cost=1.0)
        g.add_operator("iso2", cost=1.0)
        report = Linter().run(LintContext(graph=g))
        isolated = [d for d in report.diagnostics if d.rule == "G002"]
        assert len(isolated) == 2  # one finding per isolated op, not one total

    def test_errors_only(self):
        g = diamond()
        g.add_operator("iso", cost=1.0)  # would be a G002 warning
        report = Linter().errors_only().run(LintContext(graph=g))
        assert report.ok
        assert not report.diagnostics

    def test_for_packs(self):
        sub = Linter().for_packs("faults")
        assert {r.pack for r in sub.rules} == {"faults"}

    def test_filters_compose_to_the_intersection(self):
        expected = tuple(
            r for r in all_rules() if r.pack == "schedule" and r.severity is Severity.ERROR
        )
        assert expected
        assert Linter().errors_only().for_packs("schedule").rules == expected
        assert Linter().for_packs("schedule").errors_only().rules == expected

    def test_filtered_rule_tuples_are_built_once(self):
        narrowed = Linter().errors_only().for_packs("schedule")
        assert Linter().errors_only().for_packs("schedule").rules is narrowed.rules
        assert Linter().rules is Linter().rules

    def test_a_rule_registered_after_a_build_is_seen(self):
        from repro.lint import framework

        before = Linter().errors_only().for_packs("graph")
        try:
            @rule("G099", severity=Severity.ERROR, pack="graph",
                  title="late", requires=("graph",))
            def late(ctx):
                return iter(())

            ids = [r.id for r in Linter().rules]
            assert "G099" in ids and ids == sorted(ids)
            after = Linter().errors_only().for_packs("graph")
            assert [r.id for r in after.rules] == [r.id for r in before.rules] + ["G099"]
            assert "G099" in [r.id for r in all_rules()]
        finally:
            del framework._REGISTRY["G099"]
            framework._registered.cache_clear()
            framework._narrowed.cache_clear()
        assert "G099" not in [r.id for r in Linter().rules]

    def test_report_sorted_by_severity(self):
        g = OpGraph()
        g.add_operator("a", cost=float("nan"))  # G007 error
        g.add_operator("iso", cost=1.0)  # G002 warning (with >1 ops)
        report = Linter().run(LintContext(graph=g))
        ranks = [d.severity.rank for d in report.diagnostics]
        assert ranks == sorted(ranks)

    def test_report_raise_errors(self):
        g = OpGraph()
        g.add_operator("a", cost=float("nan"))
        report = Linter().run(LintContext(graph=g))
        with pytest.raises(ValueError, match="non-finite cost"):
            report.raise_errors(ValueError)

    def test_report_raise_errors_noop_when_clean(self):
        report = Linter().run(LintContext(graph=diamond()))
        report.raise_errors(ValueError)  # must not raise

    def test_report_json_round_trip(self):
        g = diamond()
        sched = Schedule(2, [Stage(0, ("a",)), Stage(0, ("b", "c")), Stage(0, ("d",))])
        report = Linter().run(LintContext(graph=g, schedule=sched))
        doc = json.loads(report.to_json())
        assert doc["errors"] == 0
        assert doc["ok"] is True
        assert isinstance(doc["diagnostics"], list)

    def test_to_text_has_summary_line(self):
        report = Linter().run(LintContext(graph=diamond()))
        assert report.to_text().endswith("0 error(s), 0 warning(s), 0 info(s)")

    def test_merged(self):
        g = OpGraph()
        g.add_operator("a", cost=float("nan"))
        r1 = Linter().run(LintContext(graph=g))
        r2 = Linter().run(LintContext(graph=diamond()))
        merged = r1.merged(r2)
        assert len(merged.diagnostics) == len(r1.diagnostics) + len(r2.diagnostics)


class TestFindingHintOverride:
    def test_rule_hint_used_when_finding_has_none(self):
        g = OpGraph()
        g.add_operator("a", cost=float("nan"))
        report = Linter().run(LintContext(graph=g))
        d = next(d for d in report.diagnostics if d.rule == "G007")
        assert d.hint is not None  # inherited from the rule

    def test_finding_is_frozen(self):
        f = Finding("msg")
        with pytest.raises(AttributeError):
            f.message = "other"
