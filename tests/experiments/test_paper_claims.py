"""Quantitative shape checks against the paper's headline claims.

Runs the real experiment drivers at a reduced instance count and
asserts the claims within generous bands — these are the statements a
reader would check the reproduction against:

* Fig. 7  — HIOS-LP speedup grows with GPU count (1.4 -> 3.8 in the
  paper); HIOS-MR plateaus (<= ~1.5); IOS/sequential flat.
* Fig. 8  — HIOS-LP holds ~2x over sequential across model sizes and
  ~1.5x over HIOS-MR.
* Fig. 9  — speedups decline as dependencies densify.
* Fig. 10 — single-GPU algorithms flat in the layer sweep; HIOS-LP
  adapts to the available parallelism.
* Fig. 11 — speedups decline as the comm ratio p grows.
* Figs. 12/13 — on the engine, HIOS-LP beats IOS and HIOS-MR at large
  inputs for both CNNs; inter-GPU mapping dominates the gain.
* Fig. 14 — IOS's scheduling cost grows much faster with input size.
"""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig

CFG = ExperimentConfig(fast=True, instances=2)


@pytest.fixture(scope="module")
def fig7():
    return EXPERIMENTS["fig7"](CFG)


@pytest.fixture(scope="module")
def fig8():
    return EXPERIMENTS["fig8"](CFG)


@pytest.fixture(scope="module")
def fig11():
    return EXPERIMENTS["fig11"](CFG)


class TestFig7Claims:
    def test_lp_scales(self, fig7):
        lp = fig7.speedup("sequential", "hios-lp")
        assert 1.2 <= lp[0] <= 2.3  # 2 GPUs (paper: ~1.4)
        assert lp[-1] >= 2.5  # 12 GPUs (paper: ~3.8)
        assert lp[-1] > lp[0] * 1.5

    def test_mr_plateaus(self, fig7):
        mr = fig7.speedup("sequential", "hios-mr")
        assert max(mr) <= 2.1  # paper: <= ~1.5
        # MR stops improving in the upper half of the sweep
        assert mr[-1] <= mr[len(mr) // 2] * 1.15

    def test_single_gpu_flat(self, fig7):
        for alg in ("sequential", "ios"):
            ys = fig7.series[alg]
            assert max(ys) / min(ys) < 1.001

    def test_ios_gain_band(self, fig7):
        ios = fig7.speedup("sequential", "ios")
        assert 1.0 <= ios[0] <= 1.4  # paper: ~1.1

    def test_lp_beats_mr_at_four_gpus(self, fig7):
        i = fig7.x.index(4)
        ratio = fig7.series["hios-mr"][i] / fig7.series["hios-lp"][i]
        assert ratio >= 1.2  # paper: ~1.5


class TestFig8Claims:
    def test_lp_speedup_band(self, fig8):
        lp = fig8.speedup("sequential", "hios-lp")
        assert all(1.6 <= s <= 2.9 for s in lp)  # paper: 2.01-2.12

    def test_lp_vs_ios(self, fig8):
        ratios = [
            i / l for i, l in zip(fig8.series["ios"], fig8.series["hios-lp"])
        ]
        assert all(r > 1.4 for r in ratios)  # paper: 1.81-1.91

    def test_intra_gpu_contributions(self, fig8):
        intra_lp = [
            (a - b) / a
            for a, b in zip(fig8.series["inter-lp"], fig8.series["hios-lp"])
        ]
        intra_mr = [
            (a - b) / a
            for a, b in zip(fig8.series["inter-mr"], fig8.series["hios-mr"])
        ]
        # paper: 5.7-7.7% on LP, 13.3-14.6% on MR; we land lower on MR
        # (documented in EXPERIMENTS.md) but both must be positive and
        # MR's must not trail LP's dramatically
        assert all(0.0 <= v <= 0.2 for v in intra_lp)
        assert all(0.0 <= v <= 0.25 for v in intra_mr)
        assert sum(intra_mr) > 0.5 * sum(intra_lp)


class TestFig9And10Claims:
    def test_fig9_density_decline(self):
        r = EXPERIMENTS["fig9"](CFG)
        lp = r.speedup("sequential", "hios-lp")
        mr = r.speedup("sequential", "hios-mr")
        assert lp[0] > lp[-1] * 1.1  # paper: 2.06 -> 1.64
        assert mr[0] > mr[-1]

    def test_fig10_adaptivity(self):
        r = EXPERIMENTS["fig10"](CFG)
        for alg in ("sequential", "ios", "hios-mr"):
            ys = r.series[alg]
            assert max(ys) / min(ys) < 1.2, f"{alg} should be ~flat"
        lp = r.series["hios-lp"]
        # more parallelism (fewer layers) must not hurt HIOS-LP
        assert lp[0] <= lp[-1] * 1.05


class TestFig11Claims:
    def test_lp_declines_with_p(self, fig11):
        lp = fig11.speedup("sequential", "hios-lp")
        assert lp[0] > lp[-1] * 1.15  # paper: 2.23 -> 1.78
        assert lp[-1] > 1.3

    def test_mr_declines_faster(self, fig11):
        mr = fig11.speedup("sequential", "hios-mr")
        lp = fig11.speedup("sequential", "hios-lp")
        assert mr[0] / mr[-1] > lp[0] / lp[-1] * 0.95
        assert mr[-1] < 1.6  # paper: 1.10 at p=1.2


class TestRealModelClaims:
    @pytest.fixture(scope="class")
    def measurements(self):
        """Engine-measured latency per model and algorithm at 1024 px,
        through the ``measured`` sweep units Figs. 12 and 13 run: one
        batch per model builds its profile once."""
        from repro.core.api import algorithm_options
        from repro.sweep import RealModelSpec
        from repro.sweep.units import clear_workload_memo, execute_batch

        algorithms = ("sequential", "ios", "hios-mr", "hios-lp", "inter-lp")
        items = [
            (i, 0, "measured", alg,
             (("window", CFG.window),) if "window" in algorithm_options(alg) else ())
            for i, alg in enumerate(algorithms)
        ]
        out = {}
        try:
            for model in ("inception_v3", "nasnet"):
                results, _reuses = execute_batch([RealModelSpec(model, 1024)], items)
                out[model] = {
                    algorithms[i]: payload["measured_ms"] for i, payload, _meta in results
                }
        finally:
            clear_workload_memo()
        return out

    def test_lp_beats_everyone_at_large_inputs(self, measurements):
        for model, ms in measurements.items():
            lp = ms["hios-lp"]
            assert lp < ms["ios"], model
            assert lp < ms["hios-mr"], model
            assert lp < ms["sequential"], model

    def test_inter_gpu_mapping_dominates_gain(self, measurements):
        # paper §VI-E: LP inter-GPU mapping accounts for >= ~80% of
        # HIOS-LP's total reduction
        for model, ms in measurements.items():
            seq = ms["sequential"]
            full = seq - ms["hios-lp"]
            inter = seq - ms["inter-lp"]
            assert full > 0
            assert inter / full > 0.7, model

    def test_inception_lp_vs_ios_band(self, measurements):
        ms = measurements["inception_v3"]
        reduction = 1 - ms["hios-lp"] / ms["ios"]
        # paper: up to 16.5%
        assert 0.05 <= reduction <= 0.35


class TestFig14Claims:
    def test_ios_cost_grows_fastest(self):
        r = EXPERIMENTS["fig14_inception"](CFG)
        ios = r.series["ios"]
        lp = r.series["hios-lp"]
        assert ios[-1] / ios[0] > 2.0
        assert ios[-1] > 3.0 * lp[-1]
