"""Repeat the benchmark and summarize each end-to-end metric's spread.

Usage (from the repository root)::

    # ten seeds per workload: the run-to-run spread of every metric
    python3 benchmarks/e2e/spread.py --seeds 0-9 -o benchmarks/e2e/out/seeds.json
    # five runs at seed 0, one workload
    python3 benchmarks/e2e/spread.py --workload sweep --seeds 0,0,0,0,0 -o a.json
    # A/B: is b's median worse than a's by more than the bound?
    python3 benchmarks/e2e/spread.py --compare a.json b.json

For every workload and metric the summary holds the values, their median
and quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``;
``steady`` marks a spread below a third of the bound.  ``--compare``
exits 1 when a metric got worse by more than its bound or, for runs of
the same seeds, when an output digest changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("schedule", "sweep", "serve-ladder", "serve-churn")


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    elapsed_s = time.perf_counter() - t0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"result": last, "digest": doc["digest"], "elapsed_s": elapsed_s}


def summarize(values: list[float], bound: float) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
    }


def collect(workloads: list[str], seeds: list[int], seconds: float) -> dict[str, Any]:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict[str, Any] = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds)
            res = run["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} digest={run['digest'][:16]}",
                  file=sys.stderr)
            runs.append(run)
        metrics = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        out["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "digests": [r["digest"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            flag = "" if m["steady"] or name == "setup_s" else "  NOT STEADY"
            print(f"  {workload:13s} {name:16s} median {m['median']:12.6g} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}", file=sys.stderr)
    return out


def compare(a: dict[str, Any], b: dict[str, Any]) -> int:
    better = {m["name"]: m["better"] for m in load_spec()["end_to_end"]}
    bad = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if better[name] == "lower" else -change
            verdict = "ok" if worse <= ma["bound"] else "WORSE"
            bad += verdict != "ok"
            print(f"{workload:13s} {name:16s} {ma['median']:12.6g} -> {mb['median']:12.6g} "
                  f"({change:+.4f}, bound {ma['bound']}) {verdict}")
        if a["seeds"] == b["seeds"] and wa["digests"] != wb["digests"]:
            bad += 1
            print(f"{workload:13s} output digests differ")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,0,0,0,0")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("-o", "--output", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return compare(a, b)
    seconds = args.seconds or load_spec()["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summary = collect(workloads, parse_seeds(args.seeds), seconds)
    text = json.dumps(summary, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
