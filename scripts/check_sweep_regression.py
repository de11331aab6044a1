"""CI gate for the parallel sweep engine (``repro.sweep``).

Runs a design-space-exploration slice (a reduced Fig. 9 GPU-count axis
crossed with a window-sensitivity axis, the shape real sweeps take)
three ways and enforces the engine's contract:

* **Parity** — the parallel run's payloads must be *byte-identical*
  to the serial run's (FAIL otherwise; this is the engine's core
  correctness property, not a tolerance check).
* **Scaling** — the serial/parallel speedup must reach
  ``--min-efficiency x min(jobs, cpus)``, and at ``--jobs 2`` or more
  it must strictly exceed 1.0 regardless of the CPU count: the batched
  path does strictly less work than the serial path (worker-side
  workload memo, shared spatial-mapping phase), so even a single-core
  machine must come out ahead.  Serial and parallel runs are measured
  as interleaved pairs and the gate uses the median per-pair speedup,
  which cancels machine-speed drift during the benchmark.
* **Cache** — a warm re-run over the populated cache must hit on at
  least ``--min-hit-rate`` (default 90 %) of the units, execute
  nothing, and reproduce the cold run bit-identically.
* **Cost drift** — the serial wall time, normalized by a per-machine
  calibration loop, must stay within ``--threshold`` (default 35 %) of
  the committed baseline ``benchmarks/results/BENCH_sweep_cost.json``.
  The loop is :func:`repro.experiments.sched_cost_bench.calibration_seconds`,
  the program-independent yardstick ``check_sched_regression.py`` also
  uses: a yardstick that ran the scheduler would shrink with every
  scheduler speed-up and fail a program that is faster on every unit.

Refresh the baseline after intentional performance changes with::

    PYTHONPATH=src python scripts/check_sweep_regression.py --write-baseline
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.sched_cost_bench import calibration_seconds  # noqa: E402
from repro.sweep import (  # noqa: E402
    RandomDagSpec,
    ResultCache,
    WorkUnit,
    execute_unit,
    run_units,
)

BASELINE = pathlib.Path("benchmarks/results/BENCH_sweep_cost.json")
GPU_COUNTS = (2, 4)
WINDOWS = (2, 3, 4)
INSTANCES = 3
NUM_OPS = 150


def build_units() -> list[WorkUnit]:
    """The bench slice: GPU-count axis x window-sensitivity axis.

    Per spec: the full algorithm set at the default window plus extra
    ``hios-lp`` windows.  This exercises every engine feature real
    sweeps lean on — single-GPU dedup across the GPU axis, worker-side
    workload reuse, and the shared window-independent spatial phase.
    """
    units: list[WorkUnit] = []
    for gpus in GPU_COUNTS:
        for i in range(INSTANCES):
            spec = RandomDagSpec(seed=i, num_gpus=gpus, num_ops=NUM_OPS)
            units.append(WorkUnit("sweep-bench", gpus, i, "sequential", spec))
            units.append(WorkUnit("sweep-bench", gpus, i, "ios", spec))
            units.append(WorkUnit("sweep-bench", gpus, i, "inter-mr", spec))
            units.append(WorkUnit("sweep-bench", gpus, i, "inter-lp", spec))
            units.append(
                WorkUnit("sweep-bench", gpus, i, "hios-mr", spec, (("window", 3),))
            )
            for window in WINDOWS:
                units.append(
                    WorkUnit(
                        "sweep-bench", gpus, i, "hios-lp", spec, (("window", window),)
                    )
                )
    return units


def _run(units: list[WorkUnit], jobs: int, cache_dir: str | None = None):
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return run_units(units, jobs=jobs, cache=cache)


def _calibrate(repeats: int = 5) -> float:
    """Machine-speed yardstick: the median of ``repeats`` runs of the
    program-independent calibration loop, after one untimed run.

    One untimed unit runs first as the import warm-up: the first
    schedule of a process pays one-time imports that must not land
    inside a timed sweep.
    """
    execute_unit(
        WorkUnit(
            figure="warm-up",
            x=NUM_OPS,
            instance=0,
            algorithm="hios-lp",
            spec=RandomDagSpec(seed=0, num_gpus=4, num_ops=NUM_OPS),
            schedule_kwargs=(("window", 3),),
        )
    )
    calibration_seconds()
    return statistics.median(calibration_seconds() for _ in range(repeats))


def measure(jobs: int, repeats: int = 3) -> dict:
    calibration_s = _calibrate()
    units = build_units()

    serial_walls: list[float] = []
    parallel_walls: list[float] = []
    pair_speedups: list[float] = []
    serial_payloads = parallel_payloads = None
    serial_stats = parallel_stats = None
    for round_index in range(repeats):
        # alternate the in-pair order so machine-speed drift within a
        # round biases neither mode
        order = ("serial", "parallel") if round_index % 2 == 0 else ("parallel", "serial")
        for mode in order:
            if mode == "serial":
                serial_payloads, serial_stats = _run(units, jobs=1)
                serial_walls.append(serial_stats.wall_s)
            else:
                parallel_payloads, parallel_stats = _run(units, jobs=jobs)
                parallel_walls.append(parallel_stats.wall_s)
        pair_speedups.append(serial_walls[-1] / parallel_walls[-1])
    speedup = statistics.median(pair_speedups)

    with tempfile.TemporaryDirectory(prefix="sweep-bench-cache-") as cache_dir:
        cold_payloads, cold_stats = _run(units, jobs=jobs, cache_dir=cache_dir)
        warm_payloads, warm_stats = _run(units, jobs=jobs, cache_dir=cache_dir)
        cache_entries = ResultCache(cache_dir).stats()["entries"]

    representatives = serial_stats.total - serial_stats.deduped
    cpus = os.cpu_count() or 1
    return {
        "bench": "design-space slice (GPU-count x window sensitivity)",
        "gpu_counts": list(GPU_COUNTS),
        "windows": list(WINDOWS),
        "num_ops": NUM_OPS,
        "instances": INSTANCES,
        "cpus": cpus,
        "jobs": jobs,
        "repeats": repeats,
        "calibration_s": calibration_s,
        "units": serial_stats.total,
        "representative_units": representatives,
        "serial": {
            "wall_s": min(serial_walls),
            "per_unit_s": min(serial_walls) / representatives,
        },
        "parallel": {
            "wall_s": min(parallel_walls),
            "speedup": speedup,
            "pair_speedups": pair_speedups,
            "efficiency": speedup / min(jobs, cpus),
            "batches": parallel_stats.batches,
            "worker_workload_reuses": parallel_stats.worker_workload_reuses,
        },
        "cache": {
            "cold_wall_s": cold_stats.wall_s,
            "warm_wall_s": warm_stats.wall_s,
            "warm_hit_rate": warm_stats.cache_hits / representatives,
            "warm_executed": warm_stats.executed,
            "entries": cache_entries,
        },
        "_payloads": {
            "serial": json.dumps(serial_payloads, sort_keys=True),
            "parallel": json.dumps(parallel_payloads, sort_keys=True),
            "cold": json.dumps(cold_payloads, sort_keys=True),
            "warm": json.dumps(warm_payloads, sort_keys=True),
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    ap.add_argument("--write-baseline", action="store_true",
                    help="measure and (over)write the baseline file instead of gating")
    ap.add_argument("--jobs", "-j", type=int, default=0,
                    help="parallel worker count (0 = one per CPU)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="interleaved serial/parallel measurement pairs")
    ap.add_argument("--min-efficiency", type=float, default=0.5,
                    help="required speedup / min(jobs, cpus) parallel efficiency")
    ap.add_argument("--min-hit-rate", type=float, default=0.9,
                    help="required warm-cache hit rate over representative units")
    ap.add_argument("--threshold", type=float, default=0.35,
                    help="allowed fractional drift of the normalized serial wall time")
    args = ap.parse_args(argv)
    jobs = args.jobs or (os.cpu_count() or 1)

    current = measure(jobs, repeats=args.repeats)
    payloads = current.pop("_payloads")

    failures = []
    for name in ("parallel", "cold", "warm"):
        if payloads[name] != payloads["serial"]:
            failures.append(f"{name} payloads are not byte-identical to the serial run")
    print(f"parity: parallel/cold/warm vs serial "
          f"[{'FAILED' if failures else 'ok'}]")

    cpus = current["cpus"]
    floor = args.min_efficiency * min(jobs, cpus)
    if jobs >= 2:
        # the batched parallel path must strictly beat serial even on
        # one CPU: it does strictly less work than the serial path
        floor = max(floor, 1.0 + 1e-9)
    speedup = current["parallel"]["speedup"]
    print(f"scaling: speedup={speedup:.2f}x (median of "
          f"{len(current['parallel']['pair_speedups'])} pairs) at jobs={jobs} "
          f"on {cpus} CPU(s), floor={floor:.2f}x "
          f"[{'ok' if speedup >= floor else 'TOO SLOW'}]")
    if speedup < floor:
        failures.append(
            f"speedup {speedup:.2f}x below the {floor:.2f}x floor "
            f"(max({args.min_efficiency} x min(jobs={jobs}, cpus={cpus}), "
            f">1.0 at jobs>=2))"
        )

    hit_rate = current["cache"]["warm_hit_rate"]
    executed = current["cache"]["warm_executed"]
    print(f"cache: warm hit rate={hit_rate:.0%}, re-executed={executed} "
          f"[{'ok' if hit_rate >= args.min_hit_rate else 'TOO COLD'}]")
    if hit_rate < args.min_hit_rate:
        failures.append(
            f"warm-cache hit rate {hit_rate:.0%} below {args.min_hit_rate:.0%}"
        )

    if args.write_baseline:
        if failures:
            print("\nrefusing to write a baseline from a failing run:",
                  file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"ERROR: baseline {args.baseline} missing "
              "(generate with --write-baseline)", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    # normalize absolute times by the calibration loop: a machine 2x
    # slower on the loop is allowed a 2x slower serial sweep
    scale = current["calibration_s"] / baseline["calibration_s"]
    allowed = baseline["serial"]["wall_s"] * scale * (1.0 + args.threshold)
    wall = current["serial"]["wall_s"]
    print(f"cost drift: serial wall={wall:.2f}s allowed<={allowed:.2f}s "
          f"(baseline {baseline['serial']['wall_s']:.2f}s, scale {scale:.2f}) "
          f"[{'ok' if wall <= allowed else 'REGRESSED'}]")
    if wall > allowed:
        failures.append(
            f"serial sweep wall {wall:.2f}s exceeds allowed {allowed:.2f}s"
        )

    if failures:
        print("\nsweep regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("sweep regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
