"""One workload in one fresh process: set up, measure, write a JSON result.

``run.py`` starts this script with a scrubbed environment; it is not
meant to be run by hand.  With ``--setup-only`` it only sets up and
reports how long that took, which ``run.py`` uses for extra set-up
samples.  Untraced (``--trace 0``) it repeats the workload's rounds
until ``--seconds`` are spent and reports the end-to-end metrics.
Traced (``--trace 1``) it alternates untraced and traced rounds, reports
the per-layer metrics and the tracing overhead, and writes the spans as
a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import spans
import workloads
from workloads import Round, SpanFn, Workload, gmean, percentile

#: End-to-end metrics with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("cold_ms_p50", "ms"),
    ("cold_ms_p90", "ms"),
    ("warm_ms_p50", "ms"),
    ("warm_ms_p90", "ms"),
    ("sim_latency_ms", "ms"),
)

#: Simulated serving values reported with the per-layer metrics.
SIM_METRICS = (
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.slo_miss_frac", "frac"),
    ("serve.capacity_qps", "1/s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    *((f"serve.ladder.x{k}.p99_ms", "ms") for k in range(1, workloads.LADDER_STEPS + 1)),
    ("serve.retries", "count"),
    ("serve.repairs", "count"),
    ("serve.displaced", "count"),
    ("serve.elastic_resizes", "count"),
    ("serve.warm_starts", "count"),
    ("serve.revived", "count"),
    ("serve.degraded_dispatches", "count"),
)

BENCH_METRICS = (("bench.trace_overhead_frac", "frac"), ("bench.unattributed_frac", "frac"))

#: Every per-layer metric with its unit, in report order.
PER_LAYER = spans.ADDITIVE + spans.DERIVED + SIM_METRICS + BENCH_METRICS


#: Wall ms of the calibration loop on the nominal machine: timing
#: metrics are reported at this machine speed (see ``Calibration``).
REFERENCE_CAL_MS = 5.0
CAL_SAMPLES = 3


class Calibration:
    """A fixed pure-Python loop that tracks the machine's speed.

    The loop computes longest paths over a fixed 400-node DAG held in
    dicts: graph traversal, dict probes and float max/add, the kind of
    interpreter work the schedulers and the simulator do.  A 2-vCPU
    virtual machine shared with other tenants drifts by about 10 %
    between 10 s windows and slows by up to 2x under load.  The loop slows
    with the workloads (the correlation of its time with a workload's
    throughput across runs was 0.65-0.9), so dividing a round's times
    by the loop's time around the round removes much of the drift.  The
    loop is the benchmark's own, so no change to the program moves it.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        n = 400
        self.succ = {i: rng.sample(range(i + 1, n), min(3, n - i - 1)) for i in range(n)}
        self.cost = {i: rng.random() for i in range(n)}

    def ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(13):
            finish: dict[int, float] = {}
            for i in range(len(self.cost) - 1, -1, -1):
                finish[i] = self.cost[i] + max((finish[j] for j in self.succ[i]), default=0.0)
        return (time.perf_counter() - t0) * 1000.0

    def samples(self) -> list[float]:
        return [self.ms() for _ in range(CAL_SAMPLES)]


class Tally:
    """Rounds of one kind (untraced or traced), with each round's
    calibration scale."""

    def __init__(self) -> None:
        self.rounds: list[Round] = []
        self.scales: list[float] = []
        self.wall_s = 0.0

    def add(self, r: Round, wall_s: float, scale: float = 1.0) -> None:
        self.rounds.append(r)
        self.scales.append(scale)
        self.wall_s += wall_s

    def timings(self, scaled: bool) -> tuple[dict[str, float], dict[str, int]]:
        """The wall-time metrics and their sample counts."""
        scales = self.scales if scaled else [1.0] * len(self.rounds)
        cold = [[v * s for v in r.cold_ms] for r, s in zip(self.rounds, scales)]
        warm = [v * s for r, s in zip(self.rounds, scales) for v in r.warm_ms]
        pooled = [v for op in cold for v in op]
        # a typical round's cold time: each operation's median across
        # rounds, summed, so noise that slows some operations in some
        # rounds does not move it
        typical_s = sum(statistics.median(op) for op in zip(*cold)) / 1000.0
        work = statistics.median(r.work for r in self.rounds)
        values = {
            "work_per_s": work / typical_s if typical_s else 0.0,
            "cold_ms_p50": percentile(pooled, 50),
            "cold_ms_p90": percentile(pooled, 90),
            "warm_ms_p50": percentile(warm, 50),
            "warm_ms_p90": percentile(warm, 90),
        }
        samples = {
            "work_per_s": len(self.rounds),
            "cold_ms_p50": len(pooled),
            "cold_ms_p90": len(pooled),
            "warm_ms_p50": len(warm),
            "warm_ms_p90": len(warm),
        }
        return values, samples


def _no_span(name: str) -> nullcontext[None]:
    return nullcontext()


def _timed_round(wl: Workload, span: SpanFn) -> tuple[Round, float]:
    t0 = time.perf_counter()
    r = wl.run_round(span)
    return r, time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(
    wl: Workload, seconds: float, setup_s: float, calibration: Calibration
) -> dict[str, Any]:
    """Untraced rounds until ``seconds`` are spent; end-to-end metrics."""
    tally = Tally()
    cals = before = calibration.samples()
    while True:
        r, wall = _timed_round(wl, _no_span)
        after = calibration.samples()
        tally.add(r, wall, REFERENCE_CAL_MS / statistics.median(before + after))
        cals, before = cals + after, after
        # stop at the round boundary nearest to the budget
        if tally.wall_s + tally.wall_s / len(tally.rounds) / 2 >= seconds:
            break
    sim = wl.sim_latencies()
    values, samples = tally.timings(scaled=True)
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(), sim_latency_ms=gmean(sim))
    samples["sim_latency_ms"] = len(sim)
    doc = _result(tally.rounds, END_TO_END, values, samples)
    doc["raw"] = tally.timings(scaled=False)[0]
    doc["calibration_ms"] = statistics.median(cals)
    doc["digest"] = tally.rounds[0].digest
    doc["rounds"] = len(tally.rounds)
    return doc


def measure_traced(
    wl: Workload,
    seconds: float,
    setup: spans.Recorder,
    rec: spans.Recorder,
    trace_out: Path | None,
) -> dict[str, Any]:
    """Alternate untraced and traced rounds; per-layer metrics.

    ``setup`` holds the spans of the traced set-up; ``rec`` records the
    traced rounds.
    """
    plain, traced = Tally(), Tally()
    covered_s = 0.0
    while True:
        plain.add(*_timed_round(wl, _no_span))
        rec.install()
        try:
            since = len(rec.spans)
            r, wall = _timed_round(wl, rec.span)
        finally:
            rec.uninstall()
        covered_s += rec.top_level_s(since)
        rec.collect_workers()
        traced.add(r, wall)
        pair_s = plain.wall_s + traced.wall_s
        if pair_s + pair_s / len(traced.rounds) / 2 >= seconds:
            break

    values = spans.layer_metrics(setup, rec, len(traced.rounds), workloads.SWEEP_JOBS)
    sims = wl.sim_metrics()
    for name, _ in SIM_METRICS:
        values[name] = float(sims.get(name, 0.0))
    overhead = (traced.wall_s / len(traced.rounds)) / (plain.wall_s / len(plain.rounds)) - 1
    values["bench.trace_overhead_frac"] = overhead
    values["bench.unattributed_frac"] = 1.0 - covered_s / traced.wall_s
    names = [(name, unit) for name, unit in PER_LAYER if name in values]
    rounds = plain.rounds + traced.rounds
    doc = _result(rounds, names, values)
    doc["digest"] = plain.rounds[0].digest
    doc["traced_digest"] = traced.rounds[0].digest
    if doc["traced_digest"] != doc["digest"]:
        doc["failed"] += 1
        doc["correct"] = False
        doc["errors"].append("traced outputs differ from untraced outputs")
    doc["rounds"] = len(rounds)
    if trace_out is not None:
        t_zero = min((s[1] for s in setup.spans + rec.spans), default=0.0)
        events = setup.chrome_events(t_zero) + rec.chrome_events(t_zero)
        trace_out.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return doc


def _result(
    rounds: list[Round],
    names: Any,
    values: dict[str, float],
    samples: dict[str, int] | None = None,
) -> dict[str, Any]:
    failed = sum(r.failed for r in rounds)
    metrics: dict[str, dict[str, Any]] = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        if samples is not None:
            metrics[name]["samples"] = samples.get(name, 1)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "errors": [e for r in rounds for e in r.errors][:10],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.time() at process start")
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup = spans.Recorder(args.tmp)
    if args.trace:
        setup.install()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    finally:
        setup.uninstall()
    setup_s = time.time() - args.t0
    calibration = Calibration()
    scaled_setup_s = setup_s * REFERENCE_CAL_MS / statistics.median(calibration.samples())
    if args.setup_only:
        doc: dict[str, Any] = {"setup_s": scaled_setup_s, "raw_setup_s": setup_s}
    elif args.trace:
        rounds = spans.Recorder(args.tmp)
        doc = measure_traced(wl, args.seconds, setup, rounds, args.trace_out)
    else:
        doc = measure(wl, args.seconds, scaled_setup_s, calibration)
        doc["raw"]["setup_s"] = setup_s
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
