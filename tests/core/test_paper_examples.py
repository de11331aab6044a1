"""Regression tests for the paper's worked examples (Figs. 4-6).

The figures omit concrete weights, so :mod:`repro.models.worked_examples`
fixes weights consistent with every step of the narrative; these tests
pin the narrative itself.
"""

import pytest

from repro.core import (
    evaluate_latency,
    longest_valid_path,
    schedule_brute_force,
    schedule_hios_lp,
    schedule_hios_mr,
    schedule_inter_gpu_lp,
    schedule_inter_gpu_mr,
)
from repro.models.worked_examples import fig4_graph, fig4_profile


class TestFig4:
    """HIOS-LP walk-through on the eight-operator graph."""

    def test_graph_shape(self):
        g = fig4_graph()
        assert len(g) == 8
        assert g.num_edges == 9
        assert g.sources() == ["v1"]
        assert g.sinks() == ["v8"]

    def test_path_extraction_sequence(self):
        g = fig4_graph()
        unscheduled = set(g.names)
        p1 = longest_valid_path(g, unscheduled)
        assert p1.vertices == ("v1", "v2", "v4", "v6", "v8")
        unscheduled -= set(p1.vertices)
        p2 = longest_valid_path(g, unscheduled)
        # NOT the longer candidate through v7 — v5 touches scheduled v6
        assert p2.vertices == ("v3", "v5")
        unscheduled -= set(p2.vertices)
        p3 = longest_valid_path(g, unscheduled)
        assert p3.vertices == ("v7",)

    def test_lp_maps_side_paths_to_second_gpu(self):
        res = schedule_inter_gpu_lp(fig4_profile())
        sched = res.schedule
        assert {sched.gpu_of(v) for v in ("v1", "v2", "v4", "v6", "v8")} == {0}
        assert {sched.gpu_of(v) for v in ("v3", "v5", "v7")} == {1}

    def test_lp_finds_optimal_latency(self):
        prof = fig4_profile()
        res = schedule_inter_gpu_lp(prof)
        brute = schedule_brute_force(prof)
        assert res.latency == pytest.approx(brute.latency) == pytest.approx(14.0)


class TestFig6:
    """HIOS-MR (Alg. 3) on the same graph: the greedy table-based
    mapping also reaches the optimum on this small example."""

    def test_mr_result(self):
        prof = fig4_profile()
        res = schedule_inter_gpu_mr(prof)
        res.schedule.validate(prof.graph)
        assert res.latency == pytest.approx(14.0)
        assert res.schedule.gpu_of("v1") == 0  # v1 pinned to GPU 1

    def test_mr_vs_lp_consistency(self):
        prof = fig4_profile()
        lp = schedule_hios_lp(prof)
        mr = schedule_hios_mr(prof)
        for res in (lp, mr):
            assert evaluate_latency(prof, res.schedule) == pytest.approx(res.latency)
