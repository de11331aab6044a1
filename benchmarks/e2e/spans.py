"""Wall-time spans around the calls into each layer, recorded from outside.

:meth:`Recorder.install` replaces every function named in
:data:`BINDINGS` (a module attribute, or a method on a class) with a
wrapper that records one span per call: ``[name, start, end, parent,
pid]`` with ``perf_counter`` seconds, kept in memory.
:meth:`Recorder.uninstall` puts the originals back, so untraced rounds
run the unmodified program.  The program itself is not edited.

A function is wrapped where its callers look it up, so a function
imported by name into several modules has one binding per module.
``cached_schedule`` is bound twice on purpose: as the serving
simulator's planning call (``serve.plan``) and everywhere else
(``sweep.schedcache.call``).

Sweep workers are forked from the measuring process and inherit the
wrappers.  A wrapper that finds itself in a new process starts an empty
span list, and when its outermost span ends it appends the spans and
counters to ``spans-<pid>.jsonl`` in the recorder's directory;
:meth:`Recorder.collect_workers` merges those files back.  The two
``execute_batch`` bindings share one wrapper object, because the
process pool pickles the function by its qualified name and pickle
checks that the name resolves to the very object it is given.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from workloads import percentile

#: (span name, module, attribute or Class.method) of every wrapped call.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("costmodel.profile", "repro.substrate.profiler", "PlatformProfiler.profile"),
    ("costmodel.profile", "repro.models.randomdag", "random_dag_profile"),
    ("core.schedule", "repro.core.api", "schedule_graph"),
    ("core.spatial_lp", "repro.core.hios_lp", "cached_spatial_lp"),
    ("core.spatial_lp", "repro.core.refine", "cached_spatial_lp"),
    ("core.spatial_mr", "repro.core.hios_mr", "cached_spatial_mr"),
    ("core.intra_gpu", "repro.core.hios_lp", "parallelize"),
    ("core.intra_gpu", "repro.core.hios_mr", "parallelize"),
    ("core.intra_gpu", "repro.core.refine", "parallelize"),
    ("core.eval", "repro.core.hios_lp", "soa_latency"),
    ("core.eval", "repro.core.hios_mr", "soa_latency"),
    ("core.eval", "repro.core.ios", "soa_latency"),
    ("core.eval", "repro.core.refine", "soa_latency"),
    ("core.repair.run_with_repair", "repro.serve.simulator", "run_with_repair"),
    ("core.repair.repair_schedule", "repro.core.repair", "repair_schedule"),
    ("core.repair.resize_schedule", "repro.serve.simulator", "resize_schedule"),
    ("substrate.engine", "repro.substrate.engine", "MultiGpuEngine.run"),
    ("sweep.run_units", "repro.sweep.executor", "run_units"),
    ("sweep.worker", "repro.sweep.executor", "execute_batch"),
    ("sweep.worker", "repro.sweep.units", "execute_batch"),
    ("sweep.key", "repro.sweep.units", "WorkUnit.key"),
    ("sweep.cache.get", "repro.sweep.cache", "ResultCache.get"),
    ("sweep.cache.put", "repro.sweep.cache", "ResultCache.put"),
    ("sweep.schedcache.call", "repro.sweep.schedcache", "cached_schedule"),
    ("sweep.schedcache.key", "repro.sweep.schedcache", "schedule_key"),
    ("sweep.schedcache.get", "repro.sweep.schedcache", "ScheduleCache.get_schedule"),
    ("sweep.schedcache.put", "repro.sweep.schedcache", "ScheduleCache.put_schedule"),
    ("serve.run", "repro.serve.simulator", "ServeSimulator.run"),
    ("serve.plan", "repro.serve.simulator", "cached_schedule"),
)

#: ``ScheduleResult.stats`` key -> per-layer counter.
_SCHEDULE_STATS = {
    "evals": "core.evals",
    "suffix_replays": "core.suffix_replays",
    "window_delta_evals": "core.window_delta_evals",
    "soa_evals": "core.soa_evals",
    "cache_hits": "core.stage_time_cache_hits",
}


def _count_schedule(counts: Counter[str], result: Any) -> None:
    for key, name in _SCHEDULE_STATS.items():
        value = result.stats.get(key, 0)
        if isinstance(value, int):
            counts[name] += value


def _count_engine(counts: Counter[str], trace: Any) -> None:
    counts["substrate.engine.ops"] += len(trace.op_finish)
    counts["substrate.engine.transfers"] += len(trace.transfers)


def _count_sweep(counts: Counter[str], out: Any) -> None:
    stats = out[1]
    counts["sweep.executed"] += stats.executed
    counts["sweep.deduped"] += stats.deduped
    counts["sweep.batches"] += stats.batches
    counts["sweep.workload_reuses"] += stats.worker_workload_reuses


def _count_lookup(prefix: str) -> Callable[[Counter[str], Any], None]:
    def count(counts: Counter[str], got: Any) -> None:
        counts[f"{prefix}.hits" if got is not None else f"{prefix}.misses"] += 1

    return count


#: Counters read off a layer's return value.
RESULT_HOOKS: dict[str, Callable[[Counter[str], Any], None]] = {
    "core.schedule": _count_schedule,
    "substrate.engine": _count_engine,
    "sweep.run_units": _count_sweep,
    "sweep.cache.get": _count_lookup("sweep.cache"),
    "sweep.schedcache.get": _count_lookup("sweep.schedcache"),
}


def _resolve(module: str, attr: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Recorder:
    """Spans and counters of one process, plus the wrappers that record them."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, pid]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        if os.getpid() != self.pid:  # first call in a forked sweep worker
            self.pid = os.getpid()
            self.in_worker = True
            self.spans, self.counts, self._stack = [], Counter(), []
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pid])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if self.in_worker and not self._stack:
            path = self.worker_dir / f"spans-{self.pid}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
            self.spans, self.counts = [], Counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the harness's own work (``bench.*``)."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        wrappers: dict[tuple[str, int], Callable[..., Any]] = {}
        for name, module, attr in BINDINGS:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            own = not isinstance(owner, type) or key in vars(owner)
            wrapper = wrappers.get((name, id(original)))
            if wrapper is None:
                wrapper = wrappers[(name, id(original))] = self._wrap(name, original)
            self._saved.append((owner, key, original, own))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, own in reversed(self._saved):
            if own:
                setattr(owner, key, original)
            else:  # the method was inherited: drop the override
                delattr(owner, key)
        self._saved.clear()

    def collect_workers(self) -> None:
        """Merge the spans and counters sweep workers wrote to disk."""
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    batch = json.loads(line)
                    offset = len(self.spans)
                    for name, start, end, parent, pid in batch["spans"]:
                        parent = parent + offset if parent >= 0 else -1
                        self.spans.append([name, start, end, parent, pid])
                    self.counts.update(batch["counts"])
            path.unlink()

    # -- derived quantities ---------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def top_level_s(self, since: int = 0) -> float:
        """Seconds covered by the measuring process's outermost spans."""
        main = os.getpid()
        return sum(
            end - start
            for _, start, end, parent, pid in self.spans[since:]
            if parent < 0 and pid == main
        )

    def totals(self) -> Counter[str]:
        """Additive per-layer quantities: calls, ms, self ms, counters."""
        out: Counter[str] = Counter()
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (end - start) * 1000.0
            out[f"{name}.self_ms"] += own * 1000.0
        out.update(self.counts)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1000.0 for n, start, end, _, _ in self.spans if n == name]

    def chrome_events(self, t_zero: float) -> list[dict[str, Any]]:
        """The spans as Chrome trace-event ``X`` events (Perfetto opens them)."""
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t_zero) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else ""},
            }
            for name, start, end, parent, pid in self.spans
        ]


#: Per-layer metrics summed from spans and counters (``Recorder.totals``).
ADDITIVE = (
    ("costmodel.profile.calls", "count"),
    ("costmodel.profile.ms", "ms"),
    ("core.schedule.calls", "count"),
    ("core.schedule.ms", "ms"),
    ("core.schedule.self_ms", "ms"),
    ("core.spatial_lp.ms", "ms"),
    ("core.spatial_mr.ms", "ms"),
    ("core.intra_gpu.ms", "ms"),
    ("core.eval.ms", "ms"),
    ("core.evals", "count"),
    ("core.suffix_replays", "count"),
    ("core.window_delta_evals", "count"),
    ("core.soa_evals", "count"),
    ("core.stage_time_cache_hits", "count"),
    ("core.repair.run_with_repair.calls", "count"),
    ("core.repair.run_with_repair.ms", "ms"),
    ("core.repair.run_with_repair.self_ms", "ms"),
    ("core.repair.repair_schedule.calls", "count"),
    ("core.repair.repair_schedule.ms", "ms"),
    ("core.repair.resize_schedule.calls", "count"),
    ("core.repair.resize_schedule.ms", "ms"),
    ("substrate.engine.calls", "count"),
    ("substrate.engine.ms", "ms"),
    ("substrate.engine.transfers", "count"),
    ("sweep.run_units.ms", "ms"),
    ("sweep.executed", "count"),
    ("sweep.deduped", "count"),
    ("sweep.batches", "count"),
    ("sweep.workload_reuses", "count"),
    ("sweep.cache.get.ms", "ms"),
    ("sweep.cache.put.ms", "ms"),
    ("sweep.key.ms", "ms"),
    ("sweep.schedcache.get.ms", "ms"),
    ("sweep.schedcache.put.ms", "ms"),
    ("sweep.schedcache.key.ms", "ms"),
    ("sweep.schedcache.hits", "count"),
    ("sweep.schedcache.misses", "count"),
    ("serve.run.ms", "ms"),
    ("serve.plan.calls", "count"),
    ("serve.plan.ms", "ms"),
)

#: Per-layer metrics derived from the totals or from span durations.
DERIVED = (
    ("substrate.engine.ms_p50", "ms"),
    ("substrate.engine.ms_p99", "ms"),
    ("substrate.engine.ops_per_s", "1/s"),
    ("sweep.worker.busy_frac", "frac"),
    ("sweep.cache.hit_frac", "frac"),
    ("serve.loop.self_ms", "ms"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup: Recorder, rounds: Recorder, n_rounds: int, jobs: int
) -> dict[str, float]:
    """Per-layer values of one traced run: set-up plus one average round.

    ``sweep.worker.busy_frac`` is left out, as absent, when units were
    executed but no worker span came back (workers that did not inherit
    the wrappers), so that it never reads as a false 0.
    """
    combined = setup.totals()
    for key, value in rounds.totals().items():
        combined[key] += value / n_rounds
    out = {name: float(combined[name]) for name, _ in ADDITIVE}
    engine = setup.durations_ms("substrate.engine") + rounds.durations_ms("substrate.engine")
    out["substrate.engine.ms_p50"] = percentile(engine, 50)
    out["substrate.engine.ms_p99"] = percentile(engine, 99)
    out["substrate.engine.ops_per_s"] = _ratio(
        combined["substrate.engine.ops"], combined["substrate.engine.ms"] / 1000.0
    )
    if combined["sweep.worker.calls"] or not combined["sweep.executed"]:
        out["sweep.worker.busy_frac"] = _ratio(
            combined["sweep.worker.ms"], jobs * combined["sweep.run_units.ms"]
        )
    hits, misses = combined["sweep.cache.hits"], combined["sweep.cache.misses"]
    out["sweep.cache.hit_frac"] = _ratio(hits, hits + misses)
    # the loop's own time: serve.run minus its planning, execution and
    # resize children
    out["serve.loop.self_ms"] = float(combined["serve.run.self_ms"])
    return out
