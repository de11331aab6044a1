"""CI gate for the serving scenario suite (``repro serve``).

Replays every seeded scenario in :data:`repro.serve.SCENARIOS` and
compares the resulting ``repro.servereport/v1`` documents against the
committed baseline ``benchmarks/results/BENCH_serving.json``:

* FAIL if any *counter* (arrivals, admitted, completed, sheds, failed,
  retries, displaced, repairs, degraded dispatches, deadline misses)
  differs from the baseline — the simulator is a pure function of the
  config, so the comparison is exact, not statistical;
* FAIL if any latency/goodput float drifts beyond a tiny relative
  tolerance (they are deterministic too; the tolerance only absorbs
  libm differences across platforms);
* FAIL if a scenario violates its robustness invariant regardless of
  the baseline: no admitted query may end ``failed``, the gpu-loss
  scenario must actually exercise repair, displacement, re-admission
  and warm-started rescheduling (``repairs >= 1``, ``displaced >= 1``,
  ``retries >= 1``, ``warm_starts >= 1``), and the gpu-loss-recovery
  scenario must exercise the full heal path (every ``repair:G@T``
  revives its GPU, batching merges requests, elastic leases grow and
  shrink);
* FAIL if a repaired GPU in gpu-loss-recovery never serves a request
  after its repair time, or if the pool does not return to pre-failure
  steady state once healed (full-width leases, best-case latency
  matching the pre-failure best, no post-repair deadline misses);
* FAIL if any scenario's deadline-miss rate exceeds ``--max-miss-rate``
  (default 0 — the committed scenarios are tuned to meet every SLO);
* FAIL if a restarted steady-state run backed by a persistent schedule
  cache does not cut total scheduling wall time by at least
  ``--min-cache-speedup`` (warm restarts must be effectively free).

Refresh the baseline after intentional behaviour changes with::

    PYTHONPATH=src python scripts/check_serve_regression.py --write-baseline
"""

import argparse
import json
import math
import pathlib
import sys
import tempfile

from repro.serve import SCENARIOS, run_scenario
from repro.serve.scenarios import scenario_config
from repro.serve.simulator import ServeSimulator
from repro.sweep import ScheduleCache

BASELINE = pathlib.Path("benchmarks/results/BENCH_serving.json")

COUNTERS = (
    "arrivals",
    "admitted",
    "completed",
    "shed_queue_full",
    "shed_deadline",
    "failed",
    "deadline_misses",
    "retries",
    "displaced",
    "repairs",
    "degraded_dispatches",
    "revived",
    "batched",
    "elastic_grows",
    "elastic_shrinks",
    "sched_cache_hits",
    "sched_cache_misses",
    "warm_starts",
)
# sched_ms is host wall-clock and must NEVER appear here — it is not
# deterministic and is stripped from the committed baseline entirely
FLOATS = ("p50_ms", "p99_ms", "goodput_qps", "deadline_miss_rate", "makespan_ms")

# invariants checked against the *current* run, independent of baseline
INVARIANTS = {
    "gpu-loss": {"repairs": 1, "displaced": 1, "retries": 1, "warm_starts": 1},
    "burst-overload": {"degraded_dispatches": None},  # None: just > 0
    "gpu-loss-recovery": {
        "revived": 3,  # every repair:G@T spec must return its GPU to service
        "failed": 0,
        "deadline_misses": 0,
        "repairs": None,  # None: just > 0
        "displaced": None,
        "batched": None,
        "elastic_grows": None,
        "elastic_shrinks": None,
    },
}


def measure() -> dict:
    docs = {name: run_scenario(name).report.to_dict() for name in sorted(SCENARIOS)}
    for doc in docs.values():
        doc.pop("sched_ms", None)  # host wall-clock: keep it out of the artifact
    return docs


def check_cache_speedup(min_speedup: float) -> list[str]:
    """Cold-vs-warm restart of steady-state through one persistent cache."""
    cfg = scenario_config("steady-state")
    with tempfile.TemporaryDirectory() as tmp:
        cold = ServeSimulator(cfg, sched_cache=ScheduleCache(tmp)).run().report
        warm = ServeSimulator(cfg, sched_cache=ScheduleCache(tmp)).run().report
    print(
        f"  schedule-cache restart: cold {cold.sched_ms:.1f} ms -> "
        f"warm {warm.sched_ms:.1f} ms ({warm.sched_cache_hits} hit(s))"
    )
    failures: list[str] = []
    if warm.sched_cache_hits == 0 or warm.sched_cache_misses != 0:
        failures.append(
            "schedule cache: warm restart should hit for every plan "
            f"(hits={warm.sched_cache_hits}, misses={warm.sched_cache_misses})"
        )
    if warm.sched_ms * min_speedup > cold.sched_ms:
        failures.append(
            f"schedule cache: warm restart sched_ms {warm.sched_ms:.2f} is not "
            f">= {min_speedup:g}x cheaper than cold {cold.sched_ms:.2f}"
        )
    return failures


def check_recovery() -> list[str]:
    """The healed pool in gpu-loss-recovery must actually serve again.

    Uses the per-request records, not just the counters: every GPU with
    a ``repair:G@T`` spec must appear in a lease dispatched at or after
    its repair time, and once the last repair lands the pool must be
    back at pre-failure steady state — full-width leases again, the
    best post-repair latency matching the best pre-failure latency, and
    no post-repair deadline misses.
    """
    from repro.substrate.faults import FaultPlan

    res = run_scenario("gpu-loss-recovery")
    cfg = res.config
    plan = FaultPlan.from_strings(cfg.faults, seed=cfg.seed)
    failures: list[str] = []
    for rp in plan.repairs():
        served = any(
            rec.dispatched_ms is not None
            and rec.dispatched_ms >= rp.at
            and rp.gpu in rec.gpus
            for rec in res.records
        )
        if not served:
            failures.append(
                f"gpu-loss-recovery: repaired GPU {rp.gpu} never served a "
                f"request after its repair at t={rp.at:g}"
            )
    first_fail = min(f.at for f in plan.failures())
    last_repair = max(rp.at for rp in plan.repairs())
    pre = [
        r.latency_ms
        for r in res.records
        if r.status == "completed"
        and r.completed_ms is not None
        and r.completed_ms < first_fail
        and r.latency_ms is not None
    ]
    post = [
        r
        for r in res.records
        if r.status == "completed"
        and r.completed_ms is not None
        and r.completed_ms > last_repair
    ]
    if not post:
        failures.append("gpu-loss-recovery: no completions after the pool healed")
        return failures
    if any(r.deadline_met is False for r in post):
        failures.append("gpu-loss-recovery: post-repair completions missed deadlines")
    if not any(
        r.dispatched_ms is not None
        and r.dispatched_ms > last_repair
        and len(r.gpus) == cfg.gpus_per_query
        for r in res.records
    ):
        failures.append(
            "gpu-loss-recovery: no full-width lease dispatched after the pool healed"
        )
    post_lat = [r.latency_ms for r in post if r.latency_ms is not None]
    if pre and post_lat and not math.isclose(min(pre), min(post_lat), rel_tol=1e-9):
        failures.append(
            f"gpu-loss-recovery: best post-repair latency {min(post_lat):.3f} ms "
            f"did not return to the pre-failure best {min(pre):.3f} ms"
        )
    print(
        f"  gpu-loss-recovery heal check: {len(post)} completion(s) after "
        f"t={last_repair:g}, best latency {min(post_lat):.3f} ms"
        + (f" (pre-failure best {min(pre):.3f} ms)" if pre else "")
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    ap.add_argument("--write-baseline", action="store_true",
                    help="run and (over)write the baseline file instead of gating")
    ap.add_argument("--rel-tol", type=float, default=1e-9,
                    help="relative tolerance on latency/goodput floats")
    ap.add_argument("--max-miss-rate", type=float, default=0.0,
                    help="maximum allowed deadline-miss rate per scenario")
    ap.add_argument("--min-cache-speedup", type=float, default=5.0,
                    help="required cold/warm total sched_ms ratio for a "
                    "schedule-cache-backed restart (0 disables the check; "
                    "the warm floor is reading and rebuilding each cached "
                    "schedule, so the gate stays below the ~8-11x measured "
                    "on a 2-vCPU container)")
    args = ap.parse_args(argv)

    current = measure()
    if args.write_baseline:
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return _report(current, current, args)

    if not args.baseline.exists():
        print(f"ERROR: baseline {args.baseline} missing "
              "(generate with --write-baseline)", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    return _report(baseline, current, args)


def _report(baseline: dict, current: dict, args: argparse.Namespace) -> int:
    failures: list[str] = []
    for name, cur in current.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (refresh with --write-baseline)")
            continue
        diffs = [
            f"{key} {base[key]} -> {cur[key]}"
            for key in COUNTERS
            if cur.get(key) != base.get(key)
        ]
        for key in FLOATS:
            b, c = base.get(key, 0.0), cur.get(key, 0.0)
            if not math.isclose(b, c, rel_tol=args.rel_tol, abs_tol=args.rel_tol):
                diffs.append(f"{key} {b} -> {c}")
        if diffs:
            failures.append(f"{name}: drifted from baseline ({'; '.join(diffs)})")

        if cur["failed"]:
            failures.append(f"{name}: {cur['failed']} admitted request(s) failed")
        if cur["deadline_miss_rate"] > args.max_miss_rate:
            failures.append(
                f"{name}: deadline-miss rate {cur['deadline_miss_rate']:.3f} "
                f"exceeds {args.max_miss_rate:.3f}"
            )
        for key, want in INVARIANTS.get(name, {}).items():
            ok = cur[key] > 0 if want is None else cur[key] == want
            if not ok:
                failures.append(
                    f"{name}: {key}={cur[key]} does not exercise the scenario "
                    f"(expected {'> 0' if want is None else want})"
                )
        print(
            f"  {name}: completed {cur['completed']}/{cur['arrivals']}  "
            f"failed {cur['failed']}  repairs {cur['repairs']}  "
            f"displaced {cur['displaced']}  p99 {cur['p99_ms']:.2f} ms  "
            f"goodput {cur['goodput_qps']:.2f} qps"
        )
    failures.extend(check_recovery())
    if args.min_cache_speedup > 0:
        failures.extend(check_cache_speedup(args.min_cache_speedup))
    if failures:
        print("\nserving regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("serving regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
