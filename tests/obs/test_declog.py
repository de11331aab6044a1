"""Decision logging: capture semantics, scheduler hooks, JSONL output."""

import json
from itertools import product

import pytest

from repro.core.api import schedule_graph
from repro.core.fasteval import SKIP_DELAYS_PATH, SKIP_OFF_PATH
from repro.models import random_dag_profile
from repro.obs import DecisionLog, capture_decisions
from repro.obs import declog


class TestCaptureSemantics:
    def test_inactive_is_none(self):
        assert declog.active() is None

    def test_module_emit_is_noop_when_inactive(self):
        declog.emit("lp-path", winner=0)  # must not raise

    def test_capture_activates_and_restores(self):
        with capture_decisions() as log:
            assert declog.active() is log
            declog.emit("test", x=1)
        assert declog.active() is None
        assert len(log) == 1

    def test_seq_numbers_are_monotone(self):
        log = DecisionLog()
        log.emit("a")
        log.emit("b", y=2)
        assert [r["seq"] for r in log] == [0, 1]
        assert log.records[1] == {"seq": 1, "event": "b", "y": 2}

    def test_nested_capture_isolates(self):
        with capture_decisions() as outer:
            declog.emit("outer-event")
            with capture_decisions() as inner:
                declog.emit("inner-event")
            declog.emit("outer-event")
        assert [r["event"] for r in outer] == ["outer-event", "outer-event"]
        assert [r["event"] for r in inner] == ["inner-event"]

    def test_events_filter(self):
        log = DecisionLog()
        log.emit("a", n=1)
        log.emit("b")
        log.emit("a", n=2)
        assert [r["n"] for r in log.events("a")] == [1, 2]

    def test_jsonl_round_trip(self, tmp_path):
        log = DecisionLog()
        log.emit("window", gpu=0, outcome="accepted", latency_ms=1.25)
        path = tmp_path / "decisions.jsonl"
        log.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec == {
            "seq": 0,
            "event": "window",
            "gpu": 0,
            "outcome": "accepted",
            "latency_ms": 1.25,
        }


class TestSchedulerHooks:
    def test_hios_lp_emits_one_record_per_path(self, profiled):
        _, profile = profiled
        with capture_decisions() as log:
            result = schedule_graph(profile, "hios-lp")
        lp = log.events("lp-path")
        assert len(lp) == result.stats["paths"]
        # path indices are the full contiguous range
        assert sorted(r["path_index"] for r in lp) == list(range(len(lp)))
        winners = {r["winner"] for r in lp}
        assert winners <= {0, 1}
        # the first path is pinned to GPU 0 by construction
        pinned = [r for r in lp if r.get("pinned")]
        assert pinned and pinned[0]["winner"] == 0
        # contested paths record the per-GPU candidate latencies
        contested = [r for r in lp if not r.get("pinned")]
        assert contested
        for r in contested:
            assert set(r["candidates_ms"]) == {"0", "1"}
            assert r["latency_ms"] == min(r["candidates_ms"].values())

    def test_window_merge_accepted_matches_groups_formed(self, profiled):
        _, profile = profiled
        with capture_decisions() as log:
            result = schedule_graph(profile, "hios-lp")
        accepted = log.events("window-merge")
        assert all(r["outcome"] == "accepted" for r in accepted)
        assert len(accepted) == result.stats["intra_gpu"].groups_formed
        # every accepted merge names at least two concurrent operators
        assert all(len(r["ops"]) >= 2 for r in accepted)

    def test_window_rejections_have_known_outcomes(self, profiled):
        _, profile = profiled
        with capture_decisions() as log:
            schedule_graph(profile, "hios-lp")
        outcomes = {r["outcome"] for r in log.events("window")}
        assert outcomes <= {
            "rejected-dependent",
            "rejected-cyclic",
            "rejected-slower",
            "improves",
        }
        assert "improves" in outcomes

    def test_skipped_windows_are_marked_and_counted(self, profiled):
        """A ``rejected-slower`` window was either priced no faster than
        the best latency or skipped unpriced, and a skipped record names
        its reason: off the critical path, or delaying the next stage of
        that path.  The reasons partition the skipped records, and each
        reason's count is the evaluator's counter for it.  (On
        inception_v3 no window delays the path; the random DAG has both
        kinds.)"""
        _, profile = profiled
        dag = random_dag_profile(seed=2, num_gpus=3, num_ops=40, num_layers=6)
        totals = {SKIP_OFF_PATH: 0, SKIP_DELAYS_PATH: 0}
        for prof, alg in product((profile, dag), ("hios-lp", "hios-mr")):
            with capture_decisions() as log:
                result = schedule_graph(prof, alg)
            slower = [r for r in log.events("window") if r["outcome"] == "rejected-slower"]
            skipped = [r for r in slower if r.get("priced") is False]
            for r in slower:
                if r.get("priced") is False:
                    assert "latency_ms" not in r
                    assert "best_latency_ms" in r
                    assert r["skip"] in totals
                else:
                    assert r["latency_ms"] >= r["best_latency_ms"]
                    assert "skip" not in r
            delays = sum(r["skip"] == SKIP_DELAYS_PATH for r in skipped)
            assert len(skipped) == result.stats["window_skips"]
            assert delays == result.stats["window_delay_skips"]
            totals[SKIP_DELAYS_PATH] += delays
            totals[SKIP_OFF_PATH] += len(skipped) - delays
        assert totals[SKIP_OFF_PATH] > 0 and totals[SKIP_DELAYS_PATH] > 0

    def test_scheduling_without_capture_emits_nothing(self, profiled):
        _, profile = profiled
        result = schedule_graph(profile, "hios-lp")  # no active log
        assert declog.active() is None
        assert result.schedule.num_stages > 0

    def test_capture_does_not_change_the_schedule(self, profiled):
        _, profile = profiled
        plain = schedule_graph(profile, "hios-lp")
        with capture_decisions():
            logged = schedule_graph(profile, "hios-lp")
        assert logged.schedule.to_dict() == plain.schedule.to_dict()
        assert logged.latency == pytest.approx(plain.latency)
