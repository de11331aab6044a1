"""Engine happens-before check overhead bench (``HIOS_SANITIZE=1``).

A sanitized run checks the trace it wrote — every launch/start/finish
and transfer send/recv — against the memoized happens-before graph
once the run is over (``check_engine_trace``, one pass over the graph's
edges and the trace's requirements).  The contract (see
``docs/linting.md``) is that a sanitized run costs **less than 2x** the
unsanitized engine wall time on the heaviest real-model workload,
nasnet@1024, so the suite can afford to leave it on by default.

Under pytest it persists the measurement to
``benchmarks/results/BENCH_sanitize_overhead.json``.  Run as a script
(``python benchmarks/bench_sanitize_overhead.py``, no pytest needed) it
prints the measurement and exits 1 at or above the ceiling.
"""

import json
import pathlib
import statistics
import time

ROUNDS = 5
MODEL = "nasnet"
SIZE = 1024
CEILING = 2.0


def _median_walls(engines, graph, schedule, rounds=ROUNDS):
    """Median wall time of each engine, and its last trace.  The
    engines take turns within each round, so a slow stretch of a shared
    machine lands on both sides of the ratio instead of on one."""
    for engine in engines:
        # warmup: pays the one-time HB-graph compilation (memoized per
        # placement) so the timed rounds measure the steady state the
        # 2x contract is about
        engine.run(graph, schedule)
    samples = [[] for _ in engines]
    traces = [None for _ in engines]
    for _ in range(rounds):
        for i, engine in enumerate(engines):
            t0 = time.perf_counter()
            traces[i] = engine.run(graph, schedule)
            samples[i].append(time.perf_counter() - t0)
    return [(statistics.median(s), trace) for s, trace in zip(samples, traces)]


def measure():
    from dataclasses import replace

    from repro.core.api import schedule_graph
    from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler
    from repro.substrate import MultiGpuEngine

    profiler = default_profiler(num_gpus=2)
    profile = profiler.profile(MODEL_BUILDERS[MODEL](SIZE))
    schedule = schedule_graph(profile, "hios-lp", window=3).schedule

    base_cfg = replace(profiler.engine().config, sanitize=False)
    (plain, trace_plain), (checked, trace_checked) = _median_walls(
        [MultiGpuEngine(base_cfg), MultiGpuEngine(replace(base_cfg, sanitize=True))],
        profile.graph,
        schedule,
    )
    assert trace_checked == trace_plain  # the check must not perturb the run
    return {
        "model": f"{MODEL}@{SIZE}",
        "operators": len(profile.graph),
        "rounds": ROUNDS,
        "engine_median_s": plain,
        "sanitized_median_s": checked,
        "overhead_ratio": checked / plain,
    }


def test_sanitizer_overhead_under_2x(benchmark, results_dir, capsys):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n{result['model']} ({result['operators']} operators): "
            f"engine {result['engine_median_s'] * 1000:.1f} ms, "
            f"sanitized {result['sanitized_median_s'] * 1000:.1f} ms, "
            f"ratio {result['overhead_ratio']:.2f}x (ceiling {CEILING}x)\n"
        )
    (results_dir / "BENCH_sanitize_overhead.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    assert result["overhead_ratio"] < CEILING


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    out = measure()
    print(json.dumps(out, indent=2))
    sys.exit(0 if out["overhead_ratio"] < CEILING else 1)
