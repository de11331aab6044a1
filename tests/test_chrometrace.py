"""Tests for the Chrome trace-event exporter."""

import json

import pytest

from repro.core import OpGraph, Schedule
from repro.obs import save_chrome_trace, trace_to_events
from repro.substrate import EngineConfig, MultiGpuEngine


@pytest.fixture
def traced_run():
    g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
    s = Schedule(2)
    s.append_op(0, "a")
    s.append_op(1, "b")
    eng = MultiGpuEngine(EngineConfig(launch_overhead_ms=0.0, launch_included_in_cost=False))
    trace = eng.run(g, s)
    return trace, {op: s.gpu_of(op) for op in g.names}


class TestTraceToEvents:
    def test_kernel_events(self, traced_run):
        trace, gpu_of = traced_run
        events = trace_to_events(trace, gpu_of)
        kernels = [e for e in events if e.get("cat") == "kernel"]
        assert {e["name"] for e in kernels} == {"a", "b"}
        a = next(e for e in kernels if e["name"] == "a")
        assert a["ts"] == pytest.approx(0.0)
        assert a["dur"] == pytest.approx(1000.0)  # 1 ms in us
        assert a["tid"] == 0

    def test_transfer_events_on_link_lane(self, traced_run):
        trace, gpu_of = traced_run
        events = trace_to_events(trace, gpu_of)
        transfers = [e for e in events if e.get("cat") == "transfer"]
        assert len(transfers) == 1
        assert transfers[0]["name"] == "a->b"
        assert transfers[0]["dur"] == pytest.approx(500.0)
        lane_meta = [
            e for e in events if e.get("ph") == "M" and "link" in str(e["args"])
        ]
        assert len(lane_meta) == 1

    def test_thread_metadata_per_gpu(self, traced_run):
        trace, gpu_of = traced_run
        events = trace_to_events(trace, gpu_of)
        names = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert "GPU 0" in names and "GPU 1" in names

    def test_save_loadable_json(self, traced_run, tmp_path):
        trace, gpu_of = traced_run
        out = tmp_path / "trace.json"
        save_chrome_trace(trace, gpu_of, out)
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc
        assert any(e.get("cat") == "kernel" for e in doc["traceEvents"])
