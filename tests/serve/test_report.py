"""Tests for SLO report math and the Chrome-exportable pool timeline."""

import pytest

from repro.serve import RequestRecord, ServeReport, serve_timeline
from repro.serve.report import SERVE_REPORT_FORMAT, percentile


class TestPercentile:
    def test_nearest_rank(self):
        vals = [10.0, 20.0, 30.0, 40.0]
        assert percentile(vals, 50) == 20.0
        assert percentile(vals, 99) == 40.0
        assert percentile(vals, 1) == 10.0
        assert percentile([7.0], 50) == 7.0

    def test_empty_sample(self):
        assert percentile([], 99) == 0.0


def _record(i, status="completed", latency=10.0, tenant="t", **kwargs):
    rec = RequestRecord(
        id=f"{tenant}-q{i:04d}",
        tenant=tenant,
        model="tiny",
        priority=0,
        arrival_ms=float(i),
        deadline_ms=float(i) + 100.0,
    )
    rec.status = status
    if status == "completed":
        rec.dispatched_ms = rec.arrival_ms
        rec.completed_ms = rec.arrival_ms + latency
        rec.released_ms = rec.completed_ms
        rec.latency_ms = latency
        rec.gpus = (0,)
        rec.deadline_met = latency <= 100.0
    for key, val in kwargs.items():
        setattr(rec, key, val)
    return rec


class TestServeReport:
    def test_counter_arithmetic_and_goodput(self):
        records = [
            _record(0, latency=10.0),
            _record(1, latency=20.0),
            _record(2, latency=120.0),  # completed but past its deadline
            _record(3, status="shed-queue"),
            _record(4, status="shed-deadline"),
            _record(5, status="failed"),
        ]
        report = ServeReport.from_records(
            records,
            retries=2,
            degraded_dispatches=3,
            gpu_busy_ms={0: 150.0},
            horizon_ms=200.0,
        )
        assert report.arrivals == 6
        assert report.admitted == 5  # everything but the queue shed
        assert report.completed == 3
        assert report.shed_queue_full == 1
        assert report.shed_deadline == 1
        assert report.failed == 1
        assert report.deadline_misses == 1
        assert report.deadline_miss_rate == pytest.approx(1 / 3)
        # makespan floors at the horizon; goodput counts on-time only
        assert report.makespan_ms == 200.0
        assert report.goodput_qps == pytest.approx(2 / 0.2)
        assert report.p50_ms == 20.0

    def test_repairs_summed_from_records(self):
        records = [_record(0, repairs=2), _record(1, repairs=1)]
        report = ServeReport.from_records(
            records, retries=0, degraded_dispatches=0,
            gpu_busy_ms={}, horizon_ms=10.0,
        )
        assert report.repairs == 3

    def test_displaced_summed_from_records(self):
        records = [_record(0, displaced=1), _record(1, displaced=2), _record(2)]
        report = ServeReport.from_records(
            records, retries=0, degraded_dispatches=0,
            gpu_busy_ms={}, horizon_ms=10.0,
        )
        assert report.displaced == 3

    def test_to_dict_format_and_tenants(self):
        records = [_record(0, tenant="a"), _record(1, tenant="b")]
        report = ServeReport.from_records(
            records, retries=0, degraded_dispatches=0,
            gpu_busy_ms={1: 5.0, 0: 2.0}, horizon_ms=50.0,
        )
        doc = report.to_dict()
        assert doc["format"] == SERVE_REPORT_FORMAT
        assert sorted(doc["tenants"]) == ["a", "b"]
        assert list(doc["gpu_busy_ms"]) == ["0", "1"]  # stringified, sorted

    def test_to_text_mentions_every_tenant(self):
        records = [_record(0, tenant="a"), _record(1, tenant="b")]
        report = ServeReport.from_records(
            records, retries=0, degraded_dispatches=0,
            gpu_busy_ms={}, horizon_ms=50.0,
        )
        text = report.to_text()
        assert "tenant a" in text and "tenant b" in text
        assert "goodput" in text


class TestServeTimeline:
    def test_one_span_per_leased_gpu(self):
        rec = _record(0)
        rec.gpus = (1, 3)
        rec.dispatched_ms = 5.0
        rec.released_ms = 12.0
        skipped = _record(1, status="shed-queue")  # never dispatched
        trace, op_gpu = serve_timeline([rec, skipped])
        assert set(op_gpu) == {"t-q0000", "t-q0000@g3"}
        assert op_gpu["t-q0000"] == 1
        assert trace.op_start["t-q0000@g3"] == 5.0
        assert trace.op_finish["t-q0000"] == 12.0
        # the primary span's launch marks the arrival (queueing is visible)
        assert trace.op_launch["t-q0000"] == rec.arrival_ms
        assert trace.latency == 12.0
        assert trace.gpu_busy == {1: 7.0, 3: 7.0}

    def test_feeds_chrome_exporter(self):
        from repro.obs import chrome_trace_document

        rec = _record(0)
        trace, op_gpu = serve_timeline([rec])
        doc = chrome_trace_document(trace, op_gpu, process_name="repro-serve")
        assert doc["otherData"]["format"] == "repro.chrometrace/v1"
        assert any(e.get("name") == "t-q0000" for e in doc["traceEvents"])

    def test_batched_followers_hold_no_span_of_their_own(self):
        leader = _record(0)
        leader.gpus = (0, 1)
        leader.dispatched_ms = 5.0
        leader.released_ms = 12.0
        follower = _record(1)
        follower.gpus = (0, 1)  # rides the leader's lease
        follower.dispatched_ms = 5.0
        follower.released_ms = 12.0
        follower.batched_with = leader.id
        trace, op_gpu = serve_timeline([leader, follower])
        # one span per lease: the follower's occupancy IS the leader's,
        # so the timeline stays linearizable under exclusive leases
        assert set(op_gpu) == {"t-q0000", "t-q0000@g1"}
        assert trace.gpu_busy == {0: 7.0, 1: 7.0}
