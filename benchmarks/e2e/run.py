"""End-to-end benchmark of scheduling, sweeps and serving.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload schedule --seed 0
    python3 benchmarks/e2e/run.py --workload sweep --trace 1   # per-layer pass
    python3 benchmarks/e2e/run.py                              # all four workloads

Each workload runs in a fresh ``python3 child.py`` process with a
scrubbed environment: no debug-lint or sanitizer switches, no
inherited sweep or cache settings, BLAS pinned to one thread, a fresh
cache and temp directory inside ``benchmarks/e2e/out/``.  Two more
processes only set up, so ``setup_s`` is the median of three set-ups.
The script prints every metric with its unit and sample count, writes
the full result to ``benchmarks/e2e/out/<workload>-seed<N>-trace<T>.json``
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 without that
line when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOADS = ("schedule", "sweep", "serve-ladder", "serve-churn")
SETUP_SAMPLES = 3
# a set-up takes under 1 s and a run its budget plus seconds, so a child
# past these limits hangs; they keep one workload's run under 180 s
SETUP_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 30.0  # plus 3x the measured time

#: Switches a user's shell may carry that change what or how the
#: program runs; tests turn the first two on, CLI users do not.
SCRUBBED = ("HIOS_DEBUG_LINT", "HIOS_SANITIZE", "REPRO_JOBS", "REPRO_BATCH_UNITS")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(tmp: Path) -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in SCRUBBED and not k.startswith("REPRO_CACHE")
    }
    env.update({var: "1" for var in BLAS_THREADS})
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], tmp: Path, timeout: float) -> dict[str, Any]:
    """Run ``child.py`` in its own session; return the JSON it wrote."""
    result = tmp / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    cmd += ["--tmp", str(tmp), "--result", str(result), "--t0", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(tmp), stdout=sys.stderr, start_new_session=True
    )
    code = None
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            # kill the whole session, so no sweep worker outlives the child
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not result.exists():
        why = "timed out" if code is None else f"exited with {code}"
        raise RuntimeError(f"child {' '.join(args)} {why}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir()
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setups: list[float] = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child([*base, "--setup-only"], tmp, SETUP_TIMEOUT_S)["setup_s"])
        extra = ["--trace", str(trace)]
        trace_file = OUT / f"{workload}-seed{seed}.trace.json"
        if trace:
            extra += ["--trace-out", str(trace_file)]
        doc = run_child([*base, *extra], tmp, RUN_TIMEOUT_S + 3 * seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not trace:
        setups.append(doc["metrics"]["setup_s"]["value"])
        doc["metrics"]["setup_s"].update(
            value=statistics.median(setups), samples=len(setups)
        )
        doc["setup_samples"] = setups
    else:
        doc["trace_file"] = str(trace_file.relative_to(ROOT))
    doc.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
    )
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n"
    )
    return doc


def print_table(doc: dict[str, Any]) -> None:
    print(
        f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
        f"rounds={doc['rounds']} attempted={doc['attempted']} failed={doc['failed']} "
        f"digest={doc['digest'][:16]}"
    )
    for name, m in doc["metrics"].items():
        n = f"n={m['samples']}" if "samples" in m else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} {n}")
    for err in doc["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer pass (untraced and traced rounds alternate)")
    args = ap.parse_args(argv)

    # measure the checkout's source, never an installed copy of the package
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    docs = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            doc = run_workload(workload, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(doc)
        docs.append(doc)

    metrics = {
        (name if args.workload else f"{doc['workload']}/{name}"): {
            "value": m["value"],
            "unit": m["unit"],
        }
        for doc in docs
        for name, m in doc["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(d["correct"] for d in docs),
                "attempted": sum(d["attempted"] for d in docs),
                "failed": sum(d["failed"] for d in docs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
