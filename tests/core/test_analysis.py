"""Tests for schedule analysis metrics."""

import pytest

from repro.core import analyze_schedule, schedule_graph
from repro.models import random_dag_profile

from .worked_examples import fig4_profile


class TestFig4Metrics:
    def test_basic_metrics(self):
        prof = fig4_profile()
        res = schedule_graph(prof, "inter-lp")
        m = analyze_schedule(prof, res.schedule)
        assert m.num_operators == 8
        assert m.num_gpus_used == 2
        assert m.latency == pytest.approx(res.latency)
        assert sum(m.gpu_load.values()) == pytest.approx(prof.graph.total_cost())
        # the longest path v1 v2 v4 v6 v8 lives on one GPU
        assert m.critical_path_local_fraction == 1.0

    def test_sequential_has_no_crossings(self):
        prof = fig4_profile()
        res = schedule_graph(prof, "sequential")
        m = analyze_schedule(prof, res.schedule)
        assert m.num_cross_edges == 0
        assert m.comm_time_total == 0.0
        assert m.num_gpus_used == 1
        assert m.load_imbalance == pytest.approx(1.0)

    def test_summary_text(self):
        prof = fig4_profile()
        m = analyze_schedule(prof, schedule_graph(prof, "hios-lp").schedule)
        text = m.summary()
        assert "ops" in text and "latency" in text


class TestPaperNarrative:
    def test_lp_crosses_less_than_mr(self):
        """The paper's explanation of HIOS-LP's win: whole-path mapping
        avoids communication that HIOS-MR's greedy placement incurs."""
        prof = random_dag_profile(seed=0, num_gpus=4)
        lp = analyze_schedule(prof, schedule_graph(prof, "inter-lp").schedule)
        mr = analyze_schedule(prof, schedule_graph(prof, "inter-mr").schedule)
        assert lp.comm_time_total < mr.comm_time_total
        assert lp.latency < mr.latency

    def test_parallel_efficiency_bounds(self):
        prof = random_dag_profile(seed=1, num_gpus=4)
        m = analyze_schedule(prof, schedule_graph(prof, "hios-lp").schedule)
        assert 0.0 < m.parallel_efficiency <= 1.0 + 1e-9

    def test_stage_widths_after_alg2(self):
        prof = random_dag_profile(seed=2, num_gpus=4)
        inter = analyze_schedule(prof, schedule_graph(prof, "inter-lp").schedule)
        full = analyze_schedule(prof, schedule_graph(prof, "hios-lp").schedule)
        assert inter.max_stage_width == 1
        assert full.max_stage_width >= 2
        assert full.num_stages < inter.num_stages
