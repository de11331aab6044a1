"""Tests for the local-search refinement extension."""

import pytest

from repro.core import (
    OpGraph,
    local_search_assignment,
    make_profile,
    priority_order,
    schedule_graph,
    schedule_hios_lp_ls,
)
from repro.models import random_dag_profile

from ..oracles import evaluate_latency, list_schedule_latency, reference_components


class TestLocalSearch:
    def test_never_worse(self):
        prof = random_dag_profile(seed=3, num_gpus=3, num_ops=60, num_layers=6)
        order = priority_order(prof.graph)
        assignment = {v: i % 3 for i, v in enumerate(order)}
        before = list_schedule_latency(prof.graph, assignment, order, 3)
        refined, after, moves = local_search_assignment(prof, assignment, order)
        assert after <= before + 1e-9
        assert moves >= 0
        assert set(refined) == set(assignment)

    def test_zero_rounds_is_identity(self):
        prof = random_dag_profile(seed=4, num_gpus=2, num_ops=30, num_layers=4)
        order = priority_order(prof.graph)
        assignment = {v: 0 for v in order}
        refined, lat, moves = local_search_assignment(
            prof, assignment, order, max_rounds=0
        )
        assert refined == assignment
        assert moves == 0

    def test_negative_rounds_rejected(self):
        prof = random_dag_profile(seed=4, num_gpus=2, num_ops=20, num_layers=4)
        with pytest.raises(ValueError):
            local_search_assignment(
                prof, {v: 0 for v in prof.graph.names},
                priority_order(prof.graph), max_rounds=-1,
            )

    def test_moves_converge_to_same_fixed_point(self):
        """Regression: the applied move now reuses the latency computed
        during the scan instead of re-evaluating (the old code did
        both, redundantly) — the move sequence and the fixed point must
        be unchanged, and the returned latency must equal the latency
        of the returned assignment."""
        for seed in (1, 2, 7):
            prof = random_dag_profile(seed=seed, num_gpus=3, num_ops=40, num_layers=5)
            order = priority_order(prof.graph)
            assignment = {v: i % 3 for i, v in enumerate(order)}
            fast = local_search_assignment(prof, assignment, order, max_rounds=8)
            with reference_components():
                ref = local_search_assignment(prof, assignment, order, max_rounds=8)
            assert fast == ref
            refined, lat, _ = fast
            assert lat == list_schedule_latency(
                prof.graph, refined, order, prof.num_gpus,
                send_blocking=prof.send_blocking, gpu_speeds=prof.gpu_speeds,
            )

    def test_finds_obvious_move(self):
        # two independent heavy ops both dumped on GPU 0: the search
        # must move one to GPU 1
        g = OpGraph.from_edges({"a": 10.0, "b": 10.0}, [])
        prof = make_profile(g, num_gpus=2)
        order = priority_order(g)
        refined, lat, moves = local_search_assignment(
            prof, {"a": 0, "b": 0}, order
        )
        assert moves == 1
        assert lat == pytest.approx(10.0)
        assert refined["a"] != refined["b"]


class TestScheduleHiosLpLs:
    def test_never_worse_than_hios_lp_inter(self):
        prof = random_dag_profile(seed=5, num_gpus=4, num_ops=80, num_layers=8)
        plain = schedule_graph(prof, "inter-lp")
        refined = schedule_hios_lp_ls(prof).stats["inter_gpu_latency"]
        assert refined <= plain.latency + 1e-9

    def test_result_consistent(self):
        prof = random_dag_profile(seed=6, num_gpus=3, num_ops=50, num_layers=6)
        res = schedule_graph(prof, "hios-lp-ls", max_rounds=2)
        res.schedule.validate(prof.graph)
        assert evaluate_latency(prof, res.schedule) == pytest.approx(res.latency)
        assert res.algorithm == "hios-lp-ls"
        assert "local_search_moves" in res.stats
