"""Unit tests for Stage/Schedule (repro.core.schedule)."""

import pytest

from repro.core import OpGraph, Schedule, ScheduleError, Stage


def chain_graph() -> OpGraph:
    return OpGraph.from_edges({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")])


def wide_graph() -> OpGraph:
    return OpGraph.from_edges(
        {"a": 1, "b": 1, "c": 1, "d": 1}, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


class TestStage:
    def test_basic(self):
        st = Stage(0, ("a", "b"))
        assert len(st) == 2
        assert "a" in st
        assert list(st) == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            Stage(0, ())

    def test_negative_gpu_rejected(self):
        with pytest.raises(ScheduleError):
            Stage(-1, ("a",))

    def test_duplicates_rejected(self):
        with pytest.raises(ScheduleError):
            Stage(0, ("a", "a"))


class TestScheduleConstruction:
    def test_append_and_query(self):
        s = Schedule(2)
        s.append_stage(Stage(0, ("a",)))
        s.append_stage(Stage(1, ("b", "c")))
        s.append_op(0, "d")
        assert s.gpu_of("a") == 0
        assert s.gpu_of("c") == 1
        assert s.stage_index_of("d") == 1
        assert s.stage_of("b").ops == ("b", "c")
        assert s.num_stages == 3
        assert s.used_gpus() == [0, 1]
        assert s.gpu_order(0) == ["a", "d"]
        assert s.assignment() == {"a": 0, "b": 1, "c": 1, "d": 0}
        assert s.max_stage_width() == 2
        assert "a" in s and "zz" not in s

    def test_zero_gpus_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(0)

    def test_gpu_out_of_range(self):
        s = Schedule(1)
        with pytest.raises(ScheduleError):
            s.append_stage(Stage(1, ("a",)))
        with pytest.raises(ScheduleError):
            s.stages_on(1)

    def test_double_scheduling_rejected(self):
        s = Schedule(2)
        s.append_op(0, "a")
        with pytest.raises(ScheduleError):
            s.append_op(1, "a")

    def test_unscheduled_lookup_raises(self):
        s = Schedule(1)
        with pytest.raises(ScheduleError):
            s.gpu_of("a")
        with pytest.raises(ScheduleError):
            s.stage_index_of("a")


class TestValidation:
    def test_valid_schedule(self):
        g = wide_graph()
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_stage(Stage(0, ("b", "c")))
        s.append_op(1, "d")
        s.validate(g)  # no raise

    def test_missing_operator(self):
        g = chain_graph()
        s = Schedule(1)
        s.append_op(0, "a")
        with pytest.raises(ScheduleError, match="not scheduled"):
            s.validate(g)

    def test_unknown_operator(self):
        g = chain_graph()
        s = Schedule(1)
        for op in ("a", "b", "c", "zz"):
            s.append_op(0, op)
        with pytest.raises(ScheduleError, match="unknown"):
            s.validate(g)

    def test_dependent_ops_in_stage(self):
        g = chain_graph()
        s = Schedule(1)
        s.append_stage(Stage(0, ("a", "b")))
        s.append_op(0, "c")
        with pytest.raises(ScheduleError, match="dependent"):
            s.validate(g)

    def test_local_order_violation_is_cycle(self):
        # b before a on the same GPU while a -> b: chain edge forward,
        # dependency edge backward => stage-graph cycle
        g = chain_graph()
        s = Schedule(1)
        s.append_op(0, "b")
        s.append_op(0, "a")
        s.append_op(0, "c")
        with pytest.raises(ScheduleError, match="cycle"):
            s.validate(g)

    def test_cross_gpu_cycle(self):
        # GPU0: [a, d], GPU1: [c, b] with a->b, c->d creates
        # S(a)->S(b) wait chain both ways
        g = OpGraph.from_edges(
            {"a": 1, "b": 1, "c": 1, "d": 1}, [("a", "b"), ("c", "d")]
        )
        s = Schedule(2)
        s.append_op(0, "d")
        s.append_op(0, "a")
        s.append_op(1, "b")
        s.append_op(1, "c")
        with pytest.raises(ScheduleError, match="cycle"):
            s.validate(g)

    def test_runs_only_the_error_rules(self, monkeypatch):
        from repro.lint.framework import Rule

        ran = []
        real = Rule.run

        def recording(rule, ctx):
            ran.append(rule.id)
            return real(rule, ctx)

        monkeypatch.setattr(Rule, "run", recording)
        g = wide_graph()
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_stage(Stage(0, ("b", "c")))
        s.append_op(1, "d")
        s.validate(g)
        assert ran == ["S001", "S002", "S006", "S007", "S008"]


class TestTransforms:
    def test_copy(self):
        s = Schedule(2)
        s.append_op(0, "a")
        c = s.copy()
        c.append_op(1, "b")
        assert "b" not in s
        assert s == Schedule(2, [Stage(0, ("a",))])

    def test_with_stages_on_gpu(self):
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(0, "b")
        s.append_op(1, "c")
        merged = s.with_stages_on_gpu(0, [Stage(0, ("a", "b"))])
        assert merged.stage_of("a").ops == ("a", "b")
        assert merged.gpu_of("c") == 1
        # original untouched
        assert s.stage_of("a").ops == ("a",)

    def test_with_stages_wrong_gpu_rejected(self):
        s = Schedule(2)
        s.append_op(0, "a")
        with pytest.raises(ScheduleError):
            s.with_stages_on_gpu(0, [Stage(1, ("a",))])


class TestJson:
    def test_roundtrip(self):
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_stage(Stage(1, ("b", "c")))
        restored = Schedule.from_json(s.to_json())
        assert restored == s

    def test_dict_shape(self):
        s = Schedule(2, [Stage(1, ("x",))])
        d = s.to_dict()
        assert d["num_gpus"] == 2
        assert d["gpus"][0]["stages"] == []
        assert d["gpus"][1]["stages"] == [["x"]]

    def test_malformed_document(self):
        with pytest.raises(ScheduleError):
            Schedule.from_dict({"gpus": []})
        with pytest.raises(ScheduleError):
            Schedule.from_dict({"num_gpus": 1, "gpus": [{"stages": [["a"]]}]})

    def test_equality(self):
        a = Schedule(1, [Stage(0, ("x",))])
        b = Schedule(1, [Stage(0, ("x",))])
        c = Schedule(2, [Stage(0, ("x",))])
        assert a == b
        assert a != c
        assert a != "not a schedule"
