"""Serial / parallel / cache-warm runs of real figure drivers must be
bit-identical — the acceptance property of the sweep engine.

Reduced configurations (tiny DAGs, 2 instances) keep this fast while
still exercising multi-x, multi-instance, multi-algorithm aggregation.
"""

import functools

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import fig08_num_operators, fig10_parallelism_degree
from repro.sweep import RandomDagSpec
from repro.sweep import executor


def identical(a, b):
    """Bit-exact SeriesResult equality on everything the figure plots."""
    assert a.x == b.x
    assert a.series == b.series  # float == : bit-identical, no tolerance
    assert a.extras["std"] == b.extras["std"]


@pytest.fixture
def tiny_figures(monkeypatch):
    monkeypatch.setattr(fig08_num_operators, "OPERATOR_COUNTS_FAST", (30, 60))
    monkeypatch.setattr(fig10_parallelism_degree, "LAYER_COUNTS", (4, 6))
    # shrink fig10's 200-op default DAGs too
    monkeypatch.setattr(
        fig10_parallelism_degree,
        "RandomDagSpec",
        functools.partial(RandomDagSpec, num_ops=40),
    )


def config(**overrides):
    base = dict(fast=True, instances=2, jobs=1, use_cache=False, progress=False)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFig8:
    def test_parallel_matches_serial(self, tiny_figures):
        serial = fig08_num_operators.run(config(jobs=1))
        parallel = fig08_num_operators.run(config(jobs=4))
        identical(serial, parallel)
        assert parallel.extras["sweep"]["jobs"] == 4

    def test_batch_units_one_matches_serial(self, tiny_figures, monkeypatch):
        # degenerate batching (one unit per batch) must change nothing
        monkeypatch.setattr(executor, "_auto_batch_units", lambda *args: 1)
        serial = fig08_num_operators.run(config(jobs=1))
        forced = fig08_num_operators.run(config(jobs=4))
        identical(serial, forced)

    def test_cache_warm_rerun_matches(self, tiny_figures, tmp_path):
        cfg = config(use_cache=True, cache_dir=str(tmp_path))
        cold = fig08_num_operators.run(cfg)
        warm = fig08_num_operators.run(cfg)
        identical(cold, warm)
        assert warm.extras["sweep"]["cache_hits"] > 0
        assert warm.extras["sweep"]["executed"] == 0

    def test_parallel_cold_then_serial_warm(self, tiny_figures, tmp_path):
        # results persisted during a parallel run must satisfy a serial reader
        cold = fig08_num_operators.run(
            config(jobs=4, use_cache=True, cache_dir=str(tmp_path))
        )
        warm = fig08_num_operators.run(
            config(jobs=1, use_cache=True, cache_dir=str(tmp_path))
        )
        identical(cold, warm)
        assert warm.extras["sweep"]["executed"] == 0


class TestFig10:
    def test_parallel_matches_serial(self, tiny_figures):
        serial = fig10_parallelism_degree.run(config(jobs=1))
        parallel = fig10_parallelism_degree.run(config(jobs=4))
        identical(serial, parallel)

    def test_batch_units_one_matches_serial(self, tiny_figures, monkeypatch):
        monkeypatch.setattr(executor, "_auto_batch_units", lambda *args: 1)
        serial = fig10_parallelism_degree.run(config(jobs=1))
        forced = fig10_parallelism_degree.run(config(jobs=4))
        identical(serial, forced)

    def test_cache_warm_rerun_matches(self, tiny_figures, tmp_path):
        cfg = config(use_cache=True, cache_dir=str(tmp_path))
        cold = fig10_parallelism_degree.run(cfg)
        warm = fig10_parallelism_degree.run(cfg)
        identical(cold, warm)
        assert warm.extras["sweep"]["executed"] == 0


def test_seed_contract_extending_the_sweep(tiny_figures, monkeypatch):
    """Instance i uses seed0 + i for every x — so adding an x value
    cannot change the workloads (hence results) of existing points."""
    two = fig08_num_operators.run(config())
    assert two.x == [30, 60]
    monkeypatch.setattr(fig08_num_operators, "OPERATOR_COUNTS_FAST", (30, 60, 90))
    three = fig08_num_operators.run(config())
    for alg, values in two.series.items():
        assert three.series[alg][:2] == values
