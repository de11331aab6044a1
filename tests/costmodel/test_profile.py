"""Unit tests for CostProfile."""

import pytest

from repro.core import OpGraph, schedule_graph
from repro.costmodel import CostProfile, MaxConcurrencyModel


def graph():
    return OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])


class TestCostProfile:
    def test_defaults(self):
        p = CostProfile(graph=graph())
        assert p.num_gpus == 2
        assert p.max_streams == 0
        assert p.send_blocking is True

    def test_stage_time(self):
        p = CostProfile(graph=graph(), concurrency=MaxConcurrencyModel())
        assert p.stage_time(["a", "b"]) == 2.0
        assert p.stage_time(["a"]) == 1.0

    def test_stage_width(self):
        """``max_streams`` bounds the stages Alg. 2 builds; 0 leaves
        them unbounded."""
        independent = OpGraph.from_edges({n: 1.0 for n in "abcdef"}, [])
        widths = {}
        for bound in (0, 2):
            p = CostProfile(
                graph=independent, concurrency=MaxConcurrencyModel(),
                num_gpus=1, max_streams=bound,
            )
            stages = schedule_graph(p, "hios-lp", window=6).schedule.stages_on(0)
            widths[bound] = max(len(stage.ops) for stage in stages)
        assert widths == {0: 6, 2: 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            CostProfile(graph=graph(), num_gpus=0)
        with pytest.raises(ValueError):
            CostProfile(graph=graph(), max_streams=-1)

    def test_cyclic_graph_rejected(self):
        g = OpGraph()
        g.add_operator("a")
        g.add_operator("b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(Exception):
            CostProfile(graph=g)
