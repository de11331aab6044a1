"""The per-layer spans of ``benchmarks/e2e`` cover every HIOS entry.

``benchmarks/e2e/spans.py`` wraps each layer's function where its
callers look it up: one module attribute per calling module.  A
scheduler that stops calling through one of those names drops its
family from the per-layer metrics without failing anything there, so
this test installs the recorder (read-only: the module is imported, not
edited) and checks that each HIOS entry records its layers.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.core import api
from repro.models import random_dag_profile

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture
def recorder(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(E2E))
    rec = importlib.import_module("spans").Recorder(tmp_path)
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


@pytest.mark.parametrize(
    "alg, spatial",
    [
        ("hios-lp", "core.spatial_lp"),
        ("hios-mr", "core.spatial_mr"),
        ("inter-lp", "core.spatial_lp"),
        ("inter-mr", "core.spatial_mr"),
        ("hios-lp-ls", "core.spatial_lp"),
    ],
)
def test_hios_entries_record_their_layer_spans(recorder, alg, spatial):
    profile = random_dag_profile(seed=1, num_gpus=2, num_ops=20, num_layers=4)
    api.schedule_graph(profile, alg)
    recorded = {span[0] for span in recorder.spans}
    windowed = "window" in api.algorithm_options(alg)
    assert {"core.schedule", spatial} <= recorded
    assert ("core.intra_gpu" in recorded) == windowed
    # Alg. 2's first evaluation prices a windowed entry's singleton
    # schedule; only the unwindowed ones call ``soa_latency``
    assert ("core.eval" in recorded) == (not windowed)
    assert recorder.counts["core.soa_evals"] > 0
