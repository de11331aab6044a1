"""CI gate for scheduler performance (Fig. 14 path).

Measures the best-of-N pure-algorithm scheduling time of ``hios-lp``
on the largest inception/nasnet workloads (see
``repro.experiments.sched_cost_bench``, which also says why the best
sample and not the median) and compares against the committed baseline
``benchmarks/results/BENCH_scheduling_cost.json``:

* FAIL if the fast-path time, normalized by the machine-speed
  calibration ratio, regresses more than ``--threshold`` (default 25 %)
  over the baseline;
* FAIL if the fast/reference speedup on any workload drops below
  ``--min-speedup`` (default 3x) — this check needs no normalization,
  both legs run on the measuring machine.  The reference leg runs the
  same scheduler on the from-scratch components of ``tests/oracles``
  (``reference_components()``), so the repository root goes on
  ``sys.path``;
* FAIL if replaying a schedule from the persistent schedule cache
  (``repro.schedcache/v1``) is not at least ``--min-cache-speedup``
  cheaper than computing it, or does not reproduce the schedule and
  latency bit-identically.

Refresh the baseline after intentional performance changes with::

    PYTHONPATH=src python scripts/check_sched_regression.py --write-baseline
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler
from repro.experiments.sched_cost_bench import measure
from repro.sweep import ScheduleCache, cached_schedule

BASELINE = pathlib.Path("benchmarks/results/BENCH_scheduling_cost.json")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def check_schedule_cache(min_speedup: float) -> list[str]:
    """Cold-vs-warm ``cached_schedule`` on the larger headline workload."""
    profile = default_profiler().profile(MODEL_BUILDERS["inception_v3"](1024))
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = ScheduleCache(tmp)
        t0 = time.perf_counter()
        cold, hit0 = cached_schedule(profile, "hios-lp", cache=cache, window=3)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm, hit1 = cached_schedule(profile, "hios-lp", cache=cache, window=3)
        warm_s = time.perf_counter() - t0
    print(f"  schedule-cache: cold {cold_s * 1000:.1f} ms -> "
          f"warm {warm_s * 1000:.1f} ms")
    if hit0 or not hit1:
        failures.append(
            f"schedule cache: expected miss-then-hit, got {hit0} then {hit1}"
        )
    if warm.schedule != cold.schedule or warm.latency != cold.latency:
        failures.append(
            "schedule cache: warm replay is not bit-identical to the cold run"
        )
    if warm_s * min_speedup > cold_s:
        failures.append(
            f"schedule cache: warm replay {warm_s * 1000:.1f} ms is not "
            f">= {min_speedup:g}x cheaper than cold {cold_s * 1000:.1f} ms"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    ap.add_argument("--write-baseline", action="store_true",
                    help="measure and (over)write the baseline file instead of gating")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression of the normalized fast time")
    ap.add_argument("--min-speedup", type=float, default=3.0,
                    help="required fast-vs-reference speedup per workload")
    ap.add_argument("--min-cache-speedup", type=float, default=5.0,
                    help="required cold/warm speedup of a schedule-cache "
                    "replay (0 disables the check)")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from tests.oracles import reference_components

    current = measure(repeats=args.repeats, reference=reference_components)
    if args.write_baseline:
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        _report(current, current, args)
        return 0

    if not args.baseline.exists():
        print(f"ERROR: baseline {args.baseline} missing "
              "(generate with --write-baseline)", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    return _report(baseline, current, args)


def _report(baseline: dict, current: dict, args: argparse.Namespace) -> int:
    # normalize the baseline's absolute times to this machine's speed:
    # a machine 2x slower on the calibration workload is allowed 2x
    # slower scheduling times
    scale = current["calibration_s"] / baseline["calibration_s"]
    print(f"calibration: baseline={baseline['calibration_s']:.3f}s "
          f"current={current['calibration_s']:.3f}s scale={scale:.2f}")
    failures = []
    for name, cur in current["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            print(f"  {name}: no baseline entry, skipping")
            continue
        allowed = base["fast_min_s"] * scale * (1.0 + args.threshold)
        speedup = cur["reference_min_s"] / cur["fast_min_s"]
        status = "ok"
        if cur["fast_min_s"] > allowed:
            status = "REGRESSED"
            failures.append(
                f"{name}: fast time {cur['fast_min_s']:.3f}s exceeds "
                f"allowed {allowed:.3f}s "
                f"(baseline {base['fast_min_s']:.3f}s, scale {scale:.2f})"
            )
        if speedup < args.min_speedup:
            status = "TOO SLOW vs reference"
            failures.append(
                f"{name}: fast/reference speedup {speedup:.2f}x "
                f"below required {args.min_speedup:.2f}x"
            )
        print(f"  {name}: fast={cur['fast_min_s']:.3f}s "
              f"reference={cur['reference_min_s']:.3f}s "
              f"speedup={speedup:.2f}x allowed<={allowed:.3f}s [{status}]")
    if args.min_cache_speedup > 0:
        failures.extend(check_schedule_cache(args.min_cache_speedup))
    if failures:
        print("\nscheduling-time regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("scheduling-time regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
