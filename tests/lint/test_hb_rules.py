"""Tests for the hb rule pack (H0xx) on repro.hbreport/v1 documents."""

import pytest

from repro.core import OpGraph, Schedule, Stage
from repro.lint import lint_hb_report
from repro.sanitize import ExecModel, analyze


def doc(**overrides):
    """A real, clean analyzer report with overrides applied."""
    graph = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0}, [("a", "b", 0.5)]
    )
    schedule = Schedule(2, [Stage(0, ("a",)), Stage(1, ("b",))])
    base = analyze(graph, schedule).to_dict()
    base.update(overrides)
    return base


def fired(document):
    return set(lint_hb_report(document).rule_ids())


def messages(document, rule_id):
    return [
        d.message
        for d in lint_hb_report(document).diagnostics
        if d.rule == rule_id
    ]


def test_clean_report():
    assert fired(doc()) == set()


class TestH001Format:
    def test_wrong_marker(self):
        assert "H001" in fired(doc(format="repro.trace/v1"))

    def test_missing_marker(self):
        d = doc()
        del d["format"]
        assert "H001" in fired(d)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("model", "fast"),
            ("stats", [1, 2]),
            ("findings", {"kind": "race"}),
            ("summary", None),
        ],
    )
    def test_section_shapes(self, key, bad):
        assert "H001" in fired(doc(**{key: bad}))


class TestH002Taxonomy:
    def test_unknown_kind(self):
        d = doc(
            findings=[
                {"kind": "ghost", "severity": "error", "message": "boo"}
            ]
        )
        assert "unknown kind 'ghost'" in messages(d, "H002")[0]

    def test_unhashable_kind(self):
        d = doc(findings=[{"kind": ["deadlock"], "severity": "error", "message": "m"}])
        assert "unknown kind ['deadlock']" in messages(d, "H002")[0]

    def test_severity_mismatch(self):
        d = doc(
            findings=[
                {"kind": "race", "severity": "info", "message": "m"}
            ]
        )
        assert "the analyzer always emits 'error'" in messages(d, "H002")[0]

    def test_missing_message(self):
        d = doc(
            findings=[{"kind": "nondeterminism", "severity": "info"}]
        )
        assert "has no message" in messages(d, "H002")[0]

    def test_non_object_finding(self):
        assert "H002" in fired(doc(findings=["oops"]))


class TestH003CleanGate:
    def test_error_finding_fails_the_gate(self, deadlock_report):
        msgs = messages(deadlock_report, "H003")
        assert len(msgs) == 1
        assert "unresolved deadlock error" in msgs[0]

    def test_warnings_pass_the_gate(self):
        d = doc(
            findings=[
                {
                    "kind": "transfer-hazard",
                    "severity": "warning",
                    "message": "m",
                }
            ],
            summary={"errors": 0, "warnings": 1, "info": 0},
        )
        assert "H003" not in fired(d)


@pytest.fixture
def deadlock_report():
    graph = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, [("a", "b"), ("c", "d")]
    )
    schedule = Schedule(2)
    for gpu, op in [(0, "d"), (0, "a"), (1, "b"), (1, "c")]:
        schedule.append_op(gpu, op)
    return analyze(graph, schedule).to_dict()


def test_real_deadlock_report_only_fails_the_gate(deadlock_report):
    # the analyzer's own output is always shape- and taxonomy-clean:
    # the only diagnostic is the H003 dirty-artifact gate
    assert fired(deadlock_report) == {"H003"}


class TestH004Consistency:
    def test_summary_counter_mismatch(self):
        d = doc(summary={"errors": 3, "warnings": 0, "info": 0})
        assert "summary.errors is 3" in messages(d, "H004")[0]

    def test_negative_stat(self):
        d = doc()
        d["stats"]["events"] = -1
        assert "non-negative integer" in messages(d, "H004")[0]

    def test_bool_stat_rejected(self):
        d = doc()
        d["stats"]["events"] = True
        assert "H004" in fired(d)

    def test_malformed_witness_step(self):
        d = doc(
            findings=[
                {
                    "kind": "deadlock",
                    "severity": "error",
                    "message": "m",
                    "witness": [{"event": "launch('a')"}],  # no edge
                }
            ],
            summary={"errors": 1, "warnings": 0, "info": 0},
        )
        assert any(
            "must be an object with event and edge" in m
            for m in messages(d, "H004")
        )

    def test_witness_not_a_list(self):
        d = doc(
            findings=[
                {
                    "kind": "deadlock",
                    "severity": "error",
                    "message": "m",
                    "witness": "a->b",
                }
            ],
            summary={"errors": 1, "warnings": 0, "info": 0},
        )
        assert any(
            "expected an array of steps" in m for m in messages(d, "H004")
        )


class TestH005ModelFlags:
    def test_missing_model_key(self):
        d = doc()
        del d["model"]["data_wait"]
        assert "model omits data_wait" in messages(d, "H005")[0]

    def test_no_sync_audit_mode_noted(self):
        graph = OpGraph.from_edges({"a": 1.0}, [])
        schedule = Schedule(1, [Stage(0, ("a",))])
        d = analyze(graph, schedule, ExecModel(data_wait=False)).to_dict()
        assert any("no-sync backend" in m for m in messages(d, "H005"))
