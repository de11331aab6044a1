"""Tests for the scheduling algorithms (sequential, IOS, HIOS-LP/MR,
inter-GPU-only variants, brute force) on hand-built graphs."""

import pytest

from repro.core import (
    ALGORITHMS,
    OpGraph,
    evaluate_latency,
    make_profile,
    schedule_brute_force,
    schedule_graph,
    schedule_hios_lp,
    schedule_hios_mr,
    schedule_inter_gpu_lp,
    schedule_inter_gpu_mr,
    schedule_ios,
    schedule_sequential,
)
from repro.costmodel import CostProfile, MaxConcurrencyModel


def diamond(transfer=0.5) -> OpGraph:
    return OpGraph.from_edges(
        {"a": 2.0, "b": 3.0, "c": 1.0, "d": 2.0},
        [("a", "b", transfer), ("a", "c", transfer), ("b", "d", transfer), ("c", "d", transfer)],
    )


class TestSequential:
    def test_latency_is_total_cost(self):
        prof = make_profile(diamond(), num_gpus=2)
        res = schedule_sequential(prof)
        assert res.latency == 8.0
        assert res.algorithm == "sequential"
        assert res.schedule.used_gpus() == [0]
        assert all(len(st) == 1 for st in res.schedule.all_stages())

    def test_explicit_gpu(self):
        prof = make_profile(diamond(), num_gpus=2)
        res = schedule_sequential(prof, gpu=1)
        assert res.schedule.used_gpus() == [1]
        with pytest.raises(ValueError):
            schedule_sequential(prof, gpu=5)


class TestIos:
    def test_exact_groups_small_ops(self):
        # with an idealized max model, b and c should share a stage
        g = diamond()
        prof = CostProfile(graph=g, num_gpus=1, concurrency=MaxConcurrencyModel())
        res = schedule_ios(prof, mode="exact")
        assert res.latency == 2 + 3 + 2  # a, {b,c}, d
        widths = sorted(len(st) for st in res.schedule.all_stages())
        assert widths == [1, 1, 2]
        assert res.stats["beam_used"] is False

    def test_exact_matches_brute_force_single_gpu(self):
        g = OpGraph.from_edges(
            {"a": 1, "b": 2, "c": 1.5, "d": 1, "e": 2},
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "e"), ("d", "e")],
            occupancy={"a": 1.0, "b": 0.4, "c": 0.4, "d": 0.4, "e": 1.0},
        )
        prof = CostProfile(graph=g, num_gpus=1)
        ios = schedule_ios(prof, mode="exact", max_stage_ops=5)
        brute = schedule_brute_force(prof)
        assert ios.latency == pytest.approx(brute.latency)

    def test_beam_never_better_than_exact(self):
        g = diamond()
        prof = CostProfile(graph=g, num_gpus=1, concurrency=MaxConcurrencyModel())
        exact = schedule_ios(prof, mode="exact")
        beam = schedule_ios(prof, mode="beam", beam_width=1)
        assert beam.latency >= exact.latency - 1e-12

    def test_never_worse_than_sequential(self):
        prof = make_profile(diamond(), num_gpus=1)
        assert (
            schedule_ios(prof).latency
            <= schedule_sequential(prof).latency + 1e-12
        )

    def test_auto_fallback_flag(self):
        prof = make_profile(diamond(), num_gpus=1)
        res = schedule_ios(prof, mode="auto", state_limit=2)
        assert res.stats["beam_used"] is True

    def test_respects_max_streams(self):
        g = diamond()
        prof = CostProfile(
            graph=g, num_gpus=1, concurrency=MaxConcurrencyModel(), max_streams=1
        )
        res = schedule_ios(prof, mode="exact")
        assert res.schedule.max_stage_width() == 1

    def test_bad_params(self):
        prof = make_profile(diamond())
        with pytest.raises(ValueError):
            schedule_ios(prof, mode="nope")
        with pytest.raises(ValueError):
            schedule_ios(prof, max_stage_ops=0)
        with pytest.raises(ValueError):
            schedule_ios(prof, gpu=9)

    def test_schedule_is_valid(self):
        prof = make_profile(diamond(), num_gpus=2)
        res = schedule_ios(prof)
        res.schedule.validate(prof.graph)
        assert evaluate_latency(prof, res.schedule) == pytest.approx(res.latency)


class TestHiosLp:
    def test_diamond_uses_two_gpus(self):
        prof = make_profile(diamond(), num_gpus=2)
        res = schedule_hios_lp(prof)
        assert res.latency < schedule_sequential(prof).latency
        assert len(res.schedule.used_gpus()) == 2
        assert res.stats["paths"] >= 2

    def test_single_gpu_degenerates_to_sequentialish(self):
        prof = make_profile(diamond(), num_gpus=1)
        res = schedule_inter_gpu_lp(prof)
        assert res.latency == pytest.approx(8.0)

    def test_intra_gpu_never_hurts(self):
        prof = make_profile(diamond(), num_gpus=2)
        with_intra = schedule_hios_lp(prof)
        without = schedule_inter_gpu_lp(prof)
        assert with_intra.latency <= without.latency + 1e-12

    def test_expensive_transfers_keep_one_gpu(self):
        prof = make_profile(diamond(transfer=100.0), num_gpus=2)
        res = schedule_inter_gpu_lp(prof)
        assert len(res.schedule.used_gpus()) == 1
        assert res.latency == pytest.approx(8.0)

    def test_algorithm_labels(self):
        prof = make_profile(diamond(), num_gpus=2)
        assert schedule_hios_lp(prof).algorithm == "hios-lp"
        assert schedule_inter_gpu_lp(prof).algorithm == "inter-lp"

    def test_schedule_valid_and_consistent(self):
        prof = make_profile(diamond(), num_gpus=3)
        res = schedule_hios_lp(prof)
        res.schedule.validate(prof.graph)
        assert evaluate_latency(prof, res.schedule) == pytest.approx(res.latency)


class TestHiosMr:
    def test_diamond(self):
        prof = make_profile(diamond(), num_gpus=2)
        res = schedule_hios_mr(prof)
        res.schedule.validate(prof.graph)
        assert res.latency <= schedule_sequential(prof).latency + 1e-12
        assert evaluate_latency(prof, res.schedule) == pytest.approx(res.latency)

    def test_single_gpu(self):
        prof = make_profile(diamond(), num_gpus=1)
        res = schedule_inter_gpu_mr(prof)
        assert res.latency == pytest.approx(8.0)

    def test_first_operator_on_gpu_zero(self):
        prof = make_profile(diamond(), num_gpus=4)
        res = schedule_inter_gpu_mr(prof)
        # v1 (the unique source, highest priority) goes to GPU 1 (index 0)
        assert res.schedule.gpu_of("a") == 0

    def test_labels(self):
        prof = make_profile(diamond(), num_gpus=2)
        assert schedule_hios_mr(prof).algorithm == "hios-mr"
        assert schedule_inter_gpu_mr(prof).algorithm == "inter-mr"

    def test_empty_graph(self):
        prof = CostProfile(graph=OpGraph(), num_gpus=2)
        res = schedule_hios_mr(prof)
        assert res.latency == 0.0
        assert res.schedule.num_stages == 0


class TestBruteForce:
    def test_rejects_large_graphs(self):
        g = OpGraph.from_edges({f"v{i}": 1.0 for i in range(12)}, [])
        with pytest.raises(ValueError):
            schedule_brute_force(CostProfile(graph=g, num_gpus=2), max_ops=10)

    def test_optimal_on_diamond(self):
        prof = make_profile(diamond(), num_gpus=2)
        brute = schedule_brute_force(prof)
        for alg in ("hios-lp", "hios-mr", "ios", "sequential"):
            assert schedule_graph(prof, alg).latency >= brute.latency - 1e-9


class TestApi:
    def test_registry_contents(self):
        assert set(ALGORITHMS) == {
            "sequential",
            "ios",
            "hios-lp",
            "hios-mr",
            "inter-lp",
            "inter-mr",
            "hios-lp-ls",
        }

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            schedule_graph(diamond(), "magic")

    def test_accepts_graph_or_profile(self):
        g = diamond()
        by_graph = schedule_graph(g, "sequential", num_gpus=2)
        by_profile = schedule_graph(make_profile(g, num_gpus=2), "sequential")
        assert by_graph.latency == by_profile.latency

    def test_kwargs_forwarded(self):
        g = diamond()
        res = schedule_graph(g, "hios-lp", num_gpus=2, window=2)
        assert res.algorithm == "hios-lp"
        res = schedule_graph(g, "ios", num_gpus=1, mode="exact")
        assert res.stats["beam_used"] is False

    def test_scheduling_time_recorded(self):
        res = schedule_graph(diamond(), "hios-lp", num_gpus=2)
        assert res.scheduling_time >= 0.0
