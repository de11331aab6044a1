"""Exhaustive reference scheduler for tiny graphs (a test oracle).

Enumerates every operator-to-GPU assignment and, per assignment, every
per-GPU ordered stage partition that respects local dependencies, then
evaluates each complete schedule (infeasible cross-GPU interleavings
are rejected by the evaluator's cycle check).  Exponential — intended
only for cross-checking HIOS-LP / HIOS-MR / IOS on graphs of at most a
dozen operators in the test suite, so it lives here and not in
``repro.core``.
"""

from __future__ import annotations

import time
from itertools import combinations, product

from repro.core.evaluator import evaluate_latency
from repro.core.result import ScheduleResult
from repro.core.schedule import Schedule, ScheduleError, Stage
from repro.costmodel.profile import CostProfile

__all__ = ["schedule_brute_force"]


def _enumerate_gpu_partitions(
    profile: CostProfile, gpu: int, ops: list[str]
) -> list[list[Stage]]:
    """All ordered stage partitions of ``ops`` on one GPU.

    Each stage must be an independent set, and the stage order must be
    a topological order of the dependencies *among these operators*
    (cross-GPU dependencies are checked later by the evaluator)."""
    graph = profile.graph
    results: list[list[Stage]] = []

    def rec(remaining: set[str], acc: list[Stage]) -> None:
        if not remaining:
            results.append(list(acc))
            return
        ready = [
            v
            for v in sorted(remaining)
            if not any(u in remaining for u in graph.predecessors(v))
        ]
        for size in range(1, len(ready) + 1):
            if profile.max_streams and size > profile.max_streams:
                break
            for stage_ops in combinations(ready, size):
                if len(stage_ops) > 1 and not graph.independent(stage_ops):
                    continue
                acc.append(Stage(gpu, tuple(stage_ops)))
                rec(remaining - set(stage_ops), acc)
                acc.pop()

    rec(set(ops), [])
    return results


def schedule_brute_force(profile: CostProfile, max_ops: int = 10) -> ScheduleResult:
    """True optimal schedule by exhaustive search (tiny graphs only)."""
    t0 = time.perf_counter()
    graph = profile.graph
    names = graph.names
    if len(names) > max_ops:
        raise ValueError(f"brute force limited to {max_ops} operators, got {len(names)}")
    best_latency = float("inf")
    best_schedule: Schedule | None = None
    M = profile.num_gpus
    for combo in product(range(M), repeat=len(names)):
        assignment = dict(zip(names, combo))
        per_gpu_ops: dict[int, list[str]] = {}
        for v, g in assignment.items():
            per_gpu_ops.setdefault(g, []).append(v)
        partition_lists = [
            _enumerate_gpu_partitions(profile, g, ops)
            for g, ops in sorted(per_gpu_ops.items())
        ]
        for parts in product(*partition_lists):
            schedule = Schedule(M)
            try:
                for gpu_stages in parts:
                    for st in gpu_stages:
                        schedule.append_stage(st)
                lat = evaluate_latency(profile, schedule, validate=True)
            except ScheduleError:
                continue
            if lat < best_latency:
                best_latency = lat
                best_schedule = schedule
    if best_schedule is None:
        raise RuntimeError("no feasible schedule found")
    return ScheduleResult(
        algorithm="brute-force",
        schedule=best_schedule,
        latency=best_latency,
        scheduling_time=time.perf_counter() - t0,
    )
