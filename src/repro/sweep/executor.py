"""The sweep executor: dedup → cache → fan out → aggregate in order.

:func:`run_units` evaluates a list of :class:`~repro.sweep.units.WorkUnit`
values and returns their payloads *in the input order*, so callers
aggregate identically no matter how the work was dispatched:

1. **Dedup.**  Units with identical cache keys are collapsed before
   dispatch; the first occurrence is the representative, later ones
   share its payload.  (This subsumes the old single-GPU-baseline
   reuse: single-GPU algorithms canonicalize away multi-GPU-only spec
   fields, so their keys coincide across e.g. a GPU-count sweep.)
2. **Cache.**  Each representative is looked up in the
   content-addressed :class:`~repro.sweep.cache.ResultCache` (when one
   is given); hits skip execution entirely, so re-running a figure is
   a warm no-op and interrupted sweeps resume.
3. **Execute.**  Misses run through
   :func:`~repro.sweep.units.execute_unit` — inline when ``jobs == 1``
   (bit-identical to the historical serial loops) — or, in parallel,
   through :func:`~repro.sweep.units.execute_batch`: units are grouped
   by spec, packed into batches of compact spec tuples, and fed to
   persistent pool workers under bounded in-flight submission, so a
   10k-unit sweep holds ``jobs + 2`` outstanding futures instead of
   10k.  Workers memoize built workloads per spec (see
   ``units.execute_batch``).  Worker processes are capped at the CPU
   count — the units are CPU-bound, so oversubscribing a core only
   buys context-switch overhead — and when that cap leaves a single
   worker the batches run inline in the parent, pool-free.  Units are
   pure functions of their spec, so neither dispatch order nor
   batching can affect any result: payloads at ``-jN`` are
   byte-identical to ``-j1``.
4. **Persist.**  Fresh payloads are written back to the cache from the
   parent process (atomic rename), never from workers.

Batch size is auto-tuned from the unit kind (large batches for cheap
``latency`` units, small ones for engine-measured kinds so the pool
stays load-balanced).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .cache import ResultCache
from .progress import SweepProgress
from .units import (
    BatchItem,
    RandomDagSpec,
    RealModelSpec,
    WorkUnit,
    clear_workload_memo,
    execute_batch,
    execute_unit,
)

__all__ = ["SweepError", "SweepStats", "resolve_jobs", "run_units"]

#: Auto-tuned batch-size caps per unit kind: latency units are cheap
#: (milliseconds each) and batch wide; engine-measured and wall-time
#: kinds are orders of magnitude heavier and batch narrow so the pool
#: keeps load-balancing.
_BATCH_CAP_CHEAP = 32
_BATCH_CAP_HEAVY = 4


class SweepError(RuntimeError):
    """The executor failed to produce a payload for every unit."""


@dataclass
class SweepStats:
    """Per-run accounting, surfaced in ``SeriesResult.extras['sweep']``."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    batches: int = 0
    worker_workload_reuses: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "batches": self.batches,
            "worker_workload_reuses": self.worker_workload_reuses,
        }


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` → ``os.cpu_count()``; else the value itself."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one per CPU)")
    return jobs


def _auto_batch_units(units: Sequence[WorkUnit], to_run: Sequence[int], jobs: int) -> int:
    """Default batch size: ≥ 4 batches per worker for load balance,
    capped by how heavy the units are."""
    heavy = any(units[rep].kind != "latency" for rep in to_run)
    cap = _BATCH_CAP_HEAVY if heavy else _BATCH_CAP_CHEAP
    return max(1, min(cap, -(-len(to_run) // (jobs * 4))))


def _plan_batches(
    units: Sequence[WorkUnit], to_run: Sequence[int], batch_size: int
) -> list[list[int]]:
    """Chunk ``to_run`` into batches of ≈ ``batch_size`` representatives.

    Representatives are grouped by spec (first-appearance order, stable
    within a group) so units sharing a workload land in the same batch
    and hit the worker-side memo.  Spec groups are kept whole — a batch
    may exceed ``batch_size`` to finish a group, because splitting a
    group across workers forfeits a workload rebuild — except that a
    group larger than ``2 × batch_size`` is cut into near-equal chunks
    to preserve load balance.
    """
    groups: dict[RandomDagSpec | RealModelSpec, list[int]] = {}
    order: list[RandomDagSpec | RealModelSpec] = []
    for rep in to_run:
        spec = units[rep].spec
        group = groups.get(spec)
        if group is None:
            groups[spec] = group = []
            order.append(spec)
        group.append(rep)
    batches: list[list[int]] = []
    current: list[int] = []
    for spec in order:
        group = groups[spec]
        if len(group) > 2 * batch_size:
            if current:
                batches.append(current)
                current = []
            chunks = -(-len(group) // batch_size)
            width = -(-len(group) // chunks)
            batches.extend(group[i : i + width] for i in range(0, len(group), width))
            continue
        current.extend(group)
        if len(current) >= batch_size:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


def _pack_batch(
    units: Sequence[WorkUnit], reps: Sequence[int]
) -> tuple[list[RandomDagSpec | RealModelSpec], list[BatchItem]]:
    """Compact wire form of one batch: spec table + per-unit tuples."""
    specs: list[RandomDagSpec | RealModelSpec] = []
    spec_index: dict[RandomDagSpec | RealModelSpec, int] = {}
    items: list[BatchItem] = []
    for rep in reps:
        unit = units[rep]
        index = spec_index.get(unit.spec)
        if index is None:
            spec_index[unit.spec] = index = len(specs)
            specs.append(unit.spec)
        items.append((rep, index, unit.kind, unit.algorithm, unit.schedule_kwargs))
    return specs, items


def run_units(
    units: Sequence[WorkUnit],
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    progress: SweepProgress | None = None,
) -> tuple[list[dict[str, float]], SweepStats]:
    """Evaluate ``units``; returns ``(payloads_in_input_order, stats)``."""
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    stats = SweepStats(total=len(units), jobs=jobs)
    if progress is None:
        progress = SweepProgress("sweep", len(units), enabled=False)

    keys = [unit.key() for unit in units]
    payloads: list[dict[str, float] | None] = [None] * len(units)
    first_index: dict[str, int] = {}
    duplicates: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        rep = first_index.setdefault(key, i)
        if rep != i:
            duplicates.setdefault(rep, []).append(i)
            stats.deduped += 1

    def resolve(rep: int, payload: dict[str, float], *, cached: bool) -> None:
        payloads[rep] = payload
        progress.update(cached=cached)
        for dup in duplicates.get(rep, ()):
            payloads[dup] = payload
            progress.update(deduped=True)

    # cache pass over representatives, in input order
    to_run: list[int] = []
    for rep in sorted(first_index.values()):
        hit = cache.get(keys[rep]) if cache is not None else None
        if hit is not None:
            stats.cache_hits += 1
            resolve(rep, hit, cached=True)
        else:
            to_run.append(rep)

    def persist(rep: int, payload: dict[str, float], meta: dict[str, float]) -> None:
        if cache is not None:
            unit = units[rep]
            cache.put(
                keys[rep],
                payload,
                kind=unit.kind,
                algorithm=unit.algorithm,
                meta=meta,
            )

    if jobs == 1 or len(to_run) <= 1:
        for rep in to_run:
            payload, meta = execute_unit(units[rep])
            stats.executed += 1
            persist(rep, payload, meta)
            resolve(rep, payload, cached=False)
    elif (max_workers := min(jobs, len(to_run), os.cpu_count() or 1)) == 1:
        # Requested parallelism exceeds the machine: CPU-bound workers
        # beyond the core count only add time-slicing overhead (~15%
        # measured on one core), so run the *batched* path inline —
        # same batches, same workload memo, no pool.  Payloads are
        # identical either way; only wall time differs.
        size = _auto_batch_units(units, to_run, jobs)
        batches = _plan_batches(units, to_run, size)
        stats.batches = len(batches)
        clear_workload_memo()  # fresh per run, like a fresh pool
        try:
            for reps in batches:
                specs, items = _pack_batch(units, reps)
                results, reuses = execute_batch(specs, items)
                stats.worker_workload_reuses += reuses
                for rep, payload, meta in results:
                    stats.executed += 1
                    persist(rep, payload, meta)
                    resolve(rep, payload, cached=False)
        finally:
            clear_workload_memo()
    else:
        size = _auto_batch_units(units, to_run, jobs)
        batches = _plan_batches(units, to_run, size)
        stats.batches = len(batches)
        max_workers = min(max_workers, len(batches))
        inflight_cap = max_workers + 2
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            remaining: Iterator[list[int]] = iter(batches)
            pending: set[Future[tuple[list[tuple[int, dict[str, float], dict[str, float]]], int]]]
            pending = set()

            def submit_next() -> bool:
                for reps in remaining:
                    specs, items = _pack_batch(units, reps)
                    pending.add(pool.submit(execute_batch, specs, items))
                    return True
                return False

            while len(pending) < inflight_cap and submit_next():
                pass
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    results, reuses = future.result()  # re-raises worker errors
                    stats.worker_workload_reuses += reuses
                    for rep, payload, meta in results:
                        stats.executed += 1
                        persist(rep, payload, meta)
                        resolve(rep, payload, cached=False)
                while len(pending) < inflight_cap and submit_next():
                    pass

    missing = [i for i, p in enumerate(payloads) if p is None]
    if missing:
        shown = ", ".join(map(str, missing[:10]))
        more = f", … ({len(missing)} total)" if len(missing) > 10 else ""
        raise SweepError(
            f"sweep produced no payload for {len(missing)} of {len(units)} "
            f"units (input indices {shown}{more})"
        )
    stats.wall_s = time.perf_counter() - t0
    return [p for p in payloads if p is not None], stats
