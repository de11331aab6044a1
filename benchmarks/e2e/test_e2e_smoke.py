"""Smoke test of the end-to-end benchmark: every workload at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import pytest

import child
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY: dict[str, dict[str, Any]] = {
    "schedule": {"real_cases": (("resnet50", 224),), "dag_sizes": (30,), "warm_passes": 2},
    "sweep": {
        "sweep_sizes": (1, 2),
        "dag_ops": 20,
        "measured_cases": (("resnet50", 224),),
        "warm_passes": 2,
    },
    "serve-ladder": {"horizon_ms": 300.0},
    "serve-churn": {"horizons_ms": (1300.0, 2500.0)},
}


def assert_emitted(doc: dict[str, Any], expected: list[dict[str, Any]]) -> None:
    assert doc["failed"] == 0, doc["errors"]
    assert doc["correct"]
    for metric in expected:
        got = doc["metrics"].get(metric["name"])
        assert got is not None, metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        assert got["unit"] == metric["unit"], metric["name"]


def test_workloads_cover_the_spec() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced(name: str, tmp_path: Path) -> None:
    wl = workloads.WORKLOADS[name](0, tmp_path, **TINY[name])
    doc = child.measure(wl, 0.0, 0.5, child.Calibration())
    assert_emitted(doc, SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced(name: str, tmp_path: Path) -> None:
    setup, rounds = spans.Recorder(tmp_path), spans.Recorder(tmp_path)
    setup.install()
    try:
        wl = workloads.WORKLOADS[name](0, tmp_path, **TINY[name])
    finally:
        setup.uninstall()
    trace_out = tmp_path / "trace.json"
    doc = child.measure_traced(wl, 0.0, setup, rounds, trace_out)

    assert_emitted(doc, SPEC["per_layer"])
    assert doc["traced_digest"] == doc["digest"]
    # children never exceed their parent span
    for rec in (setup, rounds):
        assert all(own >= -1e-9 for own in rec.self_times())
    assert rounds.spans, "the traced round recorded no spans"
    assert json.loads(trace_out.read_text())["traceEvents"]
    # the wrappers are gone again
    from repro.core import api
    from repro.sweep.cache import ResultCache

    assert not hasattr(api.schedule_graph, "__wrapped__")
    assert "get" not in vars(ResultCache)
