"""Shape tests for the per-figure experiment drivers.

These run tiny configurations (1 instance, reduced sweeps) and check
the *qualitative* claims of each paper figure — who wins, in which
direction curves move — not absolute numbers.
"""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig
from repro.experiments import (
    fig01_contention,
    fig02_comm_ratio,
    fig12_real_models,
    fig14_scheduling_cost,
)
from repro.experiments.simsweep import sweep_random_dags
from repro.sweep import RandomDagSpec

TINY = ExperimentConfig(fast=True, instances=1)


class TestFig1:
    def test_crossover(self):
        r = fig01_contention.run()
        ratio = dict(zip(r.x, r.series["ratio"]))
        # under-occupied regime: concurrency wins
        for size in (8, 16, 32, 64):
            assert ratio[size] < 1.0
        # saturated regime: contention loses
        for size in (128, 256, 512, 1024):
            assert ratio[size] > 1.0

    def test_occupancy_monotone(self):
        r = fig01_contention.run()
        occ = r.series["occupancy"]
        assert occ == sorted(occ)


class TestFig2:
    def test_pcie_worst(self):
        r = fig02_comm_ratio.run()
        nvlink = r.series["dual-A40 (NVLink)"]
        pcie = r.series["dual-V100S (PCIe Gen3)"]
        assert all(p > n for n, p in zip(nvlink, pcie))

    def test_ratios_not_negligible(self):
        r = fig02_comm_ratio.run()
        for series in r.series.values():
            assert all(v > 0.1 for v in series)


class TestSimFigures:
    """Figs. 7-11 on one seed each (full claims checked in the slower
    test_paper_claims module)."""

    def test_fig7_lp_scales_mr_plateaus(self):
        r = EXPERIMENTS["fig7"](TINY)
        lp = r.speedup("sequential", "hios-lp")
        mr = r.speedup("sequential", "hios-mr")
        assert lp[-1] > lp[0]  # LP keeps gaining with more GPUs
        assert lp[r.x.index(4)] > mr[r.x.index(4)]  # LP beats MR at 4 GPUs
        assert max(mr) < max(lp)

    def test_fig9_density_hurts(self):
        r = EXPERIMENTS["fig9"](TINY)
        lp = r.speedup("sequential", "hios-lp")
        assert lp[0] > lp[-1]  # speedup declines with dependency count

    def test_fig11_comm_ratio_hurts(self):
        r = EXPERIMENTS["fig11"](TINY)
        lp = r.speedup("sequential", "hios-lp")
        mr = r.speedup("sequential", "hios-mr")
        assert lp[0] > lp[-1]
        assert mr[0] > mr[-1]

    def test_sweep_helper_series_shape(self):
        r = sweep_random_dags(
            figure="t",
            title="t",
            x_label="m",
            x_values=[2, 4],
            spec_factory=lambda m, seed: RandomDagSpec(
                seed=seed, num_gpus=int(m), num_ops=40, num_layers=5
            ),
            config=TINY,
            algorithms=("sequential", "hios-lp"),
        )
        assert set(r.series) == {"sequential", "hios-lp"}
        assert len(r.series["hios-lp"]) == 2
        # sequential identical across x: one unit, deduped by cache key
        assert r.series["sequential"][0] == r.series["sequential"][1]
        assert r.extras["sweep"]["deduped"] == 1


@pytest.fixture(scope="module")
def small_real_config():
    return ExperimentConfig(fast=True, instances=1)


class TestRealModelFigures:
    def test_fig12_smoke(self, small_real_config, monkeypatch):
        # trim to one size for speed
        monkeypatch.setattr(
            fig12_real_models, "model_sizes", lambda m, c: (299,)
        )
        r = fig12_real_models.run(small_real_config, "inception_v3")
        assert r.x == [299]
        assert set(r.series) == {"sequential", "ios", "hios-mr", "hios-lp"}
        # HIOS-LP never loses to plain sequential on the engine here
        assert r.value("hios-lp", 299) < r.value("sequential", 299)

    def test_fig14_accounting(self, small_real_config, monkeypatch):
        monkeypatch.setattr(
            fig14_scheduling_cost, "model_sizes", lambda m, c: (299,)
        )
        r = fig14_scheduling_cost.run(small_real_config, "inception_v3")
        assert set(r.series) == {"ios", "hios-mr", "hios-lp"}
        for alg in r.series:
            assert r.series[alg][0] > 0
        # IOS profiles far more candidate groups than the HIOS passes
        assert r.value("ios", 299) > r.value("hios-lp", 299)


class TestMeasurementRecorder:
    def test_records_only_multi_op_sets(self):
        from repro.core import Operator
        from repro.costmodel import MaxConcurrencyModel
        from repro.experiments.fig14_scheduling_cost import MeasurementRecorder

        rec = MeasurementRecorder(MaxConcurrencyModel())
        a, b = Operator("a", cost=1.0), Operator("b", cost=2.0)
        assert rec.duration([a]) == 1.0
        assert rec.duration([a, b]) == 2.0
        rec.duration([b, a])  # same set, not double-counted
        assert len(rec.groups) == 1
        assert rec.group_measurement_ms == 2.0


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig1",
            "fig2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12_inception",
            "fig12_nasnet",
            "fig13",
            "fig14_inception",
            "fig14_nasnet",
        }
        assert expected <= set(EXPERIMENTS)


class TestStdTracking:
    def test_sweep_records_per_point_stddev(self):
        r = sweep_random_dags(
            figure="t",
            title="t",
            x_label="m",
            x_values=[2],
            spec_factory=lambda m, seed: RandomDagSpec(
                seed=seed, num_gpus=2, num_ops=30, num_layers=4
            ),
            config=ExperimentConfig(instances=3),
            algorithms=("sequential", "hios-lp"),
        )
        stds = r.extras["std"]
        assert set(stds) == {"sequential", "hios-lp"}
        # three different seeds -> nonzero spread
        assert stds["sequential"][0] > 0
