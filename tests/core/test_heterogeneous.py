"""Tests for the heterogeneous-GPU extension (per-GPU speed factors).

The paper assumes homogeneous GPUs; this library optionally accepts
``gpu_speeds`` so mixed fleets can be scheduled.  These tests pin the
semantics (latency scaling) and the schedulers' use of the faster
device.
"""

from dataclasses import replace

import pytest

from repro.core import (
    OpGraph,
    Schedule,
    evaluate_latency,
    schedule_graph,
    schedule_inter_gpu_lp,
    schedule_inter_gpu_mr,
)
from repro.costmodel import CostProfile
from repro.models import random_dag_profile
from repro.substrate import EngineConfig, MultiGpuEngine


def chain_graph():
    return OpGraph.from_edges({"a": 2.0, "b": 4.0}, [("a", "b", 0.0)])


class TestProfileValidation:
    def test_speed_count_must_match(self):
        with pytest.raises(ValueError):
            CostProfile(graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0,))

    def test_speeds_positive(self):
        with pytest.raises(ValueError):
            CostProfile(graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0, 0.0))

    def test_heterogeneous_flag(self):
        g = chain_graph()
        assert not CostProfile(graph=g, num_gpus=2).heterogeneous
        assert not CostProfile(graph=g, num_gpus=2, gpu_speeds=(1.0, 1.0)).heterogeneous
        assert CostProfile(graph=g, num_gpus=2, gpu_speeds=(1.0, 2.0)).heterogeneous


class TestEvaluatorScaling:
    def test_stage_time_scales(self):
        prof = CostProfile(graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0, 2.0))
        assert prof.stage_time(["b"], gpu=0) == pytest.approx(4.0)
        assert prof.stage_time(["b"], gpu=1) == pytest.approx(2.0)
        assert prof.stage_time(["b"]) == pytest.approx(4.0)  # unscaled

    def test_schedule_latency_scales(self):
        prof = CostProfile(graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0, 2.0))
        fast = Schedule(2)
        fast.append_op(1, "a")
        fast.append_op(1, "b")
        slow = Schedule(2)
        slow.append_op(0, "a")
        slow.append_op(0, "b")
        assert evaluate_latency(prof, fast) == pytest.approx(3.0)
        assert evaluate_latency(prof, slow) == pytest.approx(6.0)


class TestSchedulersPreferFastGpu:
    def test_hios_lp_uses_fast_gpu_for_critical_path(self):
        prof = CostProfile(
            graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0, 3.0)
        )
        res = schedule_inter_gpu_lp(prof)
        # the whole chain belongs on the 3x GPU: latency 2.0 not 6.0
        assert res.schedule.gpu_of("a") == 1
        assert res.schedule.gpu_of("b") == 1
        assert res.latency == pytest.approx(2.0)

    def test_hios_mr_uses_fast_gpu(self):
        prof = CostProfile(graph=chain_graph(), num_gpus=2, gpu_speeds=(1.0, 3.0))
        res = schedule_inter_gpu_mr(prof)
        assert res.latency == pytest.approx(2.0)

    def test_faster_fleet_never_hurts(self):
        base = random_dag_profile(seed=11, num_gpus=3, num_ops=40, num_layers=5)
        boosted = CostProfile(
            graph=base.graph,
            concurrency=base.concurrency,
            num_gpus=3,
            gpu_speeds=(1.0, 1.0, 2.0),
        )
        for alg in ("hios-lp", "hios-mr"):
            plain = schedule_graph(base, alg).latency
            fast = schedule_graph(boosted, alg).latency
            assert fast <= plain + 1e-9

    def test_latency_consistent_with_evaluator(self):
        prof = CostProfile(
            graph=random_dag_profile(seed=12, num_gpus=2, num_ops=30, num_layers=4).graph,
            num_gpus=2,
            gpu_speeds=(1.0, 1.5),
        )
        for alg in ("hios-lp", "hios-mr", "hios-lp-ls"):
            res = schedule_graph(prof, alg)
            assert evaluate_latency(prof, res.schedule, validate=True) == (
                pytest.approx(res.latency)
            )


class TestUniformSpeeds:
    """GPUs sharing one speed factor are a homogeneous pool
    (``heterogeneous`` is false), but their times still scale."""

    @pytest.mark.parametrize("alg", ["inter-lp", "inter-mr", "hios-lp", "hios-mr"])
    def test_uniform_speed_halves_every_time(self, alg):
        """With zero transfer weights, speed 2.0 on every GPU is the
        speed-1 problem with every time halved: the same schedule, and
        exactly half the latency (halving a float is exact)."""
        for seed in range(8):
            base = random_dag_profile(seed=seed, num_gpus=3, num_ops=40, num_layers=6)
            graph = OpGraph()
            for op in base.graph.operators():
                graph.add_operator(op.name, cost=op.cost, occupancy=op.occupancy)
            for u, v, _w in base.graph.edges():
                graph.add_edge(u, v, 0.0)
            plain = replace(base, graph=graph)
            fast = replace(plain, gpu_speeds=(2.0, 2.0, 2.0))
            want = schedule_graph(plain, alg)
            got = schedule_graph(fast, alg)
            assert got.schedule.to_dict() == want.schedule.to_dict(), seed
            assert got.latency == want.latency / 2, seed


class TestEngineScaling:
    def test_kernel_duration_scales(self):
        g = chain_graph()
        s = Schedule(2)
        s.append_op(1, "a")
        s.append_op(1, "b")
        eng = MultiGpuEngine(
            EngineConfig(
                launch_overhead_ms=0.0,
                launch_included_in_cost=False,
                gpu_speeds=(1.0, 2.0),
            )
        )
        tr = eng.run(g, s)
        assert tr.latency == pytest.approx(3.0)

    def test_invalid_speeds_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(gpu_speeds=(1.0, -1.0))
