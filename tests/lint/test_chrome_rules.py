"""T1xx rules: each has one triggering and one passing case."""

import pytest

from repro.lint import lint_chrome_trace
from repro.lint.chrome_rules import CHROME_TRACE_FORMAT


def doc(events=None, **other_overrides):
    other = {
        "format": CHROME_TRACE_FORMAT,
        "completed": True,
        "latency_ms": 2.0,
    }
    other.update(other_overrides)
    if events is None:
        events = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
             "args": {"name": "GPU 0"}},
            {"ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1000.0,
             "name": "a", "cat": "kernel", "args": {}},
        ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def fired(document):
    return set(lint_chrome_trace(document).rule_ids())


def test_well_formed_document_is_clean():
    assert fired(doc()) == set()


class TestT101Shape:
    def test_bare_array_form(self):
        report = lint_chrome_trace({"otherData": {"format": CHROME_TRACE_FORMAT}})
        [d] = [d for d in report.errors if d.rule == "T101"]
        assert "traceEvents" in d.message

    def test_non_object_event(self):
        assert "T101" in fired(doc(events=["not-an-event"]))

    def test_pass(self):
        assert "T101" not in fired(doc())


class TestT102FormatMarker:
    def test_wrong_marker(self):
        assert "T102" in fired(doc(format="repro.trace/v1"))

    def test_missing_other_data(self):
        assert "T102" in fired(
            {"traceEvents": [], "displayTimeUnit": "ms"}
        )

    def test_pass(self):
        assert "T102" not in fired(doc())


class TestT103EventStructure:
    def test_unknown_phase(self):
        bad = doc()
        bad["traceEvents"][1]["ph"] = "Z"
        assert "T103" in fired(bad)

    def test_non_integer_pid(self):
        bad = doc()
        bad["traceEvents"][1]["pid"] = "zero"
        assert "T103" in fired(bad)

    def test_negative_ts(self):
        bad = doc()
        bad["traceEvents"][1]["ts"] = -5.0
        assert "T103" in fired(bad)

    def test_missing_dur_on_complete_event(self):
        bad = doc()
        del bad["traceEvents"][1]["dur"]
        assert "T103" in fired(bad)

    def test_metadata_event_needs_no_ts(self):
        assert "T103" not in fired(doc())


class TestT104FlowPairs:
    def flow(self, ph, fid, ts):
        return {
            "ph": ph, "pid": 0, "tid": 0, "ts": ts, "id": fid,
            "name": "dep", "cat": "flow",
        }

    def test_unpaired_start(self):
        bad = doc()
        bad["traceEvents"].append(self.flow("s", 7, 100.0))
        assert "T104" in fired(bad)

    def test_unpaired_finish(self):
        bad = doc()
        bad["traceEvents"].append(self.flow("f", 7, 100.0))
        assert "T104" in fired(bad)

    def test_finish_before_start(self):
        bad = doc()
        bad["traceEvents"] += [self.flow("s", 7, 500.0), self.flow("f", 7, 100.0)]
        assert "T104" in fired(bad)

    def test_duplicate_start(self):
        bad = doc()
        bad["traceEvents"] += [
            self.flow("s", 7, 0.0), self.flow("s", 7, 1.0), self.flow("f", 7, 2.0),
        ]
        assert "T104" in fired(bad)

    def test_pass(self):
        ok = doc()
        ok["traceEvents"] += [self.flow("s", 7, 100.0), self.flow("f", 7, 200.0)]
        assert "T104" not in fired(ok)

    @pytest.mark.parametrize("fid", [[7], {"id": 7}], ids=["array", "object"])
    def test_non_scalar_id_is_a_finding(self, fid):
        bad = doc()
        bad["traceEvents"] += [self.flow("s", fid, 100.0), self.flow("f", 7, 200.0)]
        messages = [d.message for d in lint_chrome_trace(bad) if d.rule == "T104"]
        assert f"flow id {fid!r} is not a scalar" in messages


class TestT105NamedTracks:
    def test_undeclared_tid(self):
        bad = doc()
        bad["traceEvents"][1]["tid"] = 42
        report = lint_chrome_trace(bad)
        assert "T105" in set(report.rule_ids())
        assert "T105" not in {d.rule for d in report.errors}  # warning

    def test_deduped_per_tid(self):
        bad = doc()
        bad["traceEvents"][1]["tid"] = 42
        bad["traceEvents"].append(dict(bad["traceEvents"][1], name="b"))
        report = lint_chrome_trace(bad)
        assert len([d for d in report.diagnostics if d.rule == "T105"]) == 1

    def test_pass(self):
        assert "T105" not in fired(doc())

    @pytest.mark.parametrize("tid", [[0], {"id": 0}], ids=["array", "object"])
    def test_non_scalar_tid_is_a_finding(self, tid):
        def t105(document):
            return [d.message for d in lint_chrome_trace(document) if d.rule == "T105"]

        on_slice = doc()
        on_slice["traceEvents"][1]["tid"] = tid
        assert t105(on_slice) == [f"slice tid {tid!r} is not a track id"]
        on_metadata = doc()
        on_metadata["traceEvents"][0]["tid"] = tid  # names no track
        assert t105(on_metadata) == ["slice tid 0 has no thread_name metadata event"]


class TestT106FailureMarker:
    def test_partial_without_instant(self):
        assert "T106" in fired(doc(completed=False))

    def test_partial_with_instant(self):
        ok = doc(completed=False)
        ok["traceEvents"].append(
            {"ph": "i", "pid": 0, "tid": 0, "ts": 800.0, "s": "g",
             "name": "gpu failure", "cat": "failure", "args": {}}
        )
        assert "T106" not in fired(ok)

    def test_completed_trace_needs_no_marker(self):
        assert "T106" not in fired(doc())


def test_errors_only_drops_warnings():
    bad = doc()
    bad["traceEvents"][1]["tid"] = 42  # T105 warning only
    assert not lint_chrome_trace(bad, errors_only=True).diagnostics
