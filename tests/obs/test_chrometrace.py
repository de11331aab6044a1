"""Chrome/Perfetto export: event structure, flows, failure marker."""

import json

import pytest

from repro.core import OpGraph, Schedule
from repro.lint import lint_chrome_trace
from repro.obs import (
    CHROME_TRACE_FORMAT,
    chrome_trace_document,
    save_chrome_trace,
    trace_to_events,
)
from repro.substrate import EngineConfig, MultiGpuEngine
from repro.substrate.faults import FaultPlan, GpuFailure


def two_gpu_run():
    g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
    s = Schedule(2)
    s.append_op(0, "a")
    s.append_op(1, "b")
    cfg = EngineConfig(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.0,
    )
    trace = MultiGpuEngine(cfg).run(g, s)
    return trace, {"a": 0, "b": 1}


class TestEventStructure:
    def test_kernel_events_in_microseconds(self):
        trace, op_gpu = two_gpu_run()
        events = trace_to_events(trace, op_gpu)
        kernels = {e["name"]: e for e in events if e.get("cat") == "kernel"}
        assert set(kernels) == {"a", "b"}
        assert kernels["a"]["ph"] == "X"
        assert kernels["a"]["tid"] == 0
        assert kernels["b"]["tid"] == 1
        # a runs 0-1 ms -> 0-1000 us; b runs 1.5-3.5 ms
        assert kernels["a"]["dur"] == pytest.approx(1000.0)
        assert kernels["b"]["ts"] == pytest.approx(1500.0)
        assert kernels["b"]["dur"] == pytest.approx(2000.0)

    def test_gpu_tracks_are_named(self):
        trace, op_gpu = two_gpu_run()
        events = trace_to_events(trace, op_gpu)
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "GPU 0"
        assert names[1] == "GPU 1"
        # the transfer lane gets its own named row after the GPUs
        assert any("link 0->1" in n for n in names.values())

    def test_transfer_slice_and_flow_pair(self):
        trace, op_gpu = two_gpu_run()
        events = trace_to_events(trace, op_gpu)
        transfers = [e for e in events if e.get("cat") == "transfer"]
        assert len(transfers) == 1
        assert transfers[0]["dur"] == pytest.approx(500.0)
        flows = [e for e in events if e.get("cat") == "flow"]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["ts"] >= starts[0]["ts"]
        # the arrow lands on the consumer's GPU row
        assert finishes[0]["tid"] == 1

    def test_document_carries_format_marker(self):
        trace, op_gpu = two_gpu_run()
        doc = chrome_trace_document(trace, op_gpu)
        assert doc["otherData"]["format"] == CHROME_TRACE_FORMAT
        assert doc["otherData"]["completed"] is True
        assert doc["otherData"]["latency_ms"] == pytest.approx(trace.latency)
        assert doc["displayTimeUnit"] == "ms"

    def test_save_round_trips_through_json(self, tmp_path):
        trace, op_gpu = two_gpu_run()
        path = tmp_path / "trace.json"
        save_chrome_trace(trace, op_gpu, path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["format"] == CHROME_TRACE_FORMAT
        assert len(doc["traceEvents"]) >= 4


class TestFailureTraces:
    def failed_run(self):
        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        cfg = EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.0,
            faults=FaultPlan([GpuFailure(gpu=1, at=2.0)]),
        )
        trace = MultiGpuEngine(cfg).run(g, s)
        assert trace.failure is not None
        return trace, {"a": 0, "b": 1}

    def test_failure_instant_event(self):
        trace, op_gpu = self.failed_run()
        events = trace_to_events(trace, op_gpu)
        [instant] = [e for e in events if e["ph"] == "i"]
        assert instant["cat"] == "failure"
        assert instant["s"] == "g"
        assert instant["ts"] == pytest.approx(trace.failure.time * 1000.0)
        assert instant["args"]["gpu"] == 1
        assert "b" in instant["args"]["in_flight"]

    def test_inflight_kernel_cut_at_failure(self):
        trace, op_gpu = self.failed_run()
        events = trace_to_events(trace, op_gpu)
        [b] = [e for e in events if e.get("cat") == "kernel" and e["name"] == "b"]
        assert b["args"]["unfinished"] is True
        assert b["ts"] + b["dur"] == pytest.approx(trace.latency * 1000.0)

    def test_partial_document_flags_completed_false(self):
        trace, op_gpu = self.failed_run()
        doc = chrome_trace_document(trace, op_gpu)
        assert doc["otherData"]["completed"] is False


class TestExporterOutputIsLintClean:
    def test_synthetic(self):
        trace, op_gpu = two_gpu_run()
        report = lint_chrome_trace(chrome_trace_document(trace, op_gpu))
        assert not report.diagnostics

    def test_partial_failure(self):
        trace, op_gpu = TestFailureTraces().failed_run()
        report = lint_chrome_trace(chrome_trace_document(trace, op_gpu))
        assert not report.diagnostics

    def test_real_model(self, traced):
        trace, op_gpu, _ = traced
        report = lint_chrome_trace(chrome_trace_document(trace, op_gpu))
        assert not report.diagnostics
