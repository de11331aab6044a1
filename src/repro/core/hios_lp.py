"""HIOS-LP — longest-path-based operator scheduling (Alg. 1).

The spatial mapping iterates: extract the longest *valid* path from
the unscheduled subgraph (see :mod:`repro.core.longest_path`), then try
mapping the entire path onto each of the ``M`` GPUs, keeping the GPU
that minimizes the latency of list-scheduling everything mapped so far
(temporal step, :mod:`repro.core.list_schedule`).  Mapping a whole path
at once removes every transfer along it — the global optimization that
distinguishes HIOS-LP from the operator-at-a-time HIOS-MR.

After the spatial mapping, the sliding-window pass of Alg. 2
(:func:`repro.core.intra_gpu.parallelize`) regroups small co-located
operators into concurrent stages.

Both passes run on the incremental engine of :mod:`repro.core.fasteval`:
prefix-replay across the ``M`` GPU candidates of one path (each path's
prefix simulation resuming where the previous path's stopped),
stage-graph deltas across window candidates.
"""

from __future__ import annotations

import time
from typing import Any, MutableMapping, cast

from ..costmodel.profile import CostProfile
from ..obs import declog
from .debuglint import debug_lint_schedule
from .fasteval import EvalCounters, PrefixReplayer, soa_latency
from .intra_gpu import parallelize
from .list_schedule import build_singleton_schedule
from .longest_path import LongestPathEngine
from .priority import priority_order
from .result import ScheduleResult
from .schedule import Schedule

__all__ = ["cached_spatial_lp", "schedule_hios_lp", "schedule_inter_gpu_lp"]


def _lp_spatial_mapping(
    profile: CostProfile,
    counters: EvalCounters | None = None,
) -> tuple[dict[str, int], list[str], int]:
    """Run the iterative longest-path mapping; returns (assignment,
    priority order, number of extracted paths)."""
    graph = profile.graph
    num_gpus = profile.num_gpus
    order = priority_order(graph)
    unscheduled = set(graph.names)
    assignment: dict[str, int] = {}
    paths = 0
    replayer = PrefixReplayer(
        graph,
        num_gpus,
        send_blocking=profile.send_blocking,
        gpu_speeds=profile.gpu_speeds,
        counters=counters,
    )
    path_engine = LongestPathEngine(graph)

    log = declog.active()
    while unscheduled:
        path = path_engine.longest_valid_path(unscheduled)
        unscheduled.difference_update(path.vertices)
        paths += 1

        if not assignment and not profile.heterogeneous:
            # First path: all GPUs are interchangeable (homogeneity),
            # map onto GPU 0 without trying the rest.  With
            # heterogeneous speed factors (extension) every GPU is
            # tried like any other path.
            for v in path:
                assignment[v] = 0
            if log is not None:
                log.emit(
                    "lp-path",
                    path_index=paths - 1,
                    ops=list(path.vertices),
                    winner=0,
                    pinned=True,
                )
            continue

        on_path = set(path.vertices)
        scheduled_order = [v for v in order if v in assignment or v in on_path]
        # The prefix before the first operator whose processing reads
        # this path's assignment is candidate-invariant: simulate it
        # once, replay only the suffix per GPU.
        replayer.snapshot(scheduled_order, assignment, path.vertices)
        best_gpu = 0
        best_latency = float("inf")
        candidates: dict[int, float] = {}
        for gpu in range(num_gpus):
            for v in path:
                assignment[v] = gpu
            latency = replayer.replay(assignment)
            candidates[gpu] = latency
            if latency < best_latency:
                best_latency = latency
                best_gpu = gpu
        for v in path:
            assignment[v] = best_gpu
        if log is not None:
            log.emit(
                "lp-path",
                path_index=paths - 1,
                ops=list(path.vertices),
                winner=best_gpu,
                latency_ms=best_latency,
                candidates_ms={str(g): lat for g, lat in candidates.items()},
            )

    return assignment, order, paths


def cached_spatial_lp(
    profile: CostProfile,
    counters: EvalCounters | None = None,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> tuple[dict[str, int], list[str], int]:
    """LP spatial mapping, optionally served from a per-workload cache.

    The Alg. 1 mapping depends only on the profile — not on the Alg. 2
    window — so one computation serves ``hios-lp`` at every window,
    ``inter-lp`` and ``hios-lp-ls`` alike (the sweep engine's batch
    workers exploit exactly this).  The cache stores and hands out
    copies, so no caller can corrupt another's view; a hit returns the
    bit-identical mapping the fresh run would produce.  Note a hit
    skips the phase entirely: its decision-log events are not
    re-emitted and its evaluation counters do not re-accumulate.
    """
    if spatial_cache is not None:
        hit = spatial_cache.get("lp")
        if hit is not None:
            assignment, order, paths = cast(
                "tuple[dict[str, int], list[str], int]", hit
            )
            return dict(assignment), list(order), paths
    assignment, order, paths = _lp_spatial_mapping(profile, counters=counters)
    if spatial_cache is not None:
        spatial_cache["lp"] = (dict(assignment), list(order), paths)
    return assignment, order, paths


def schedule_hios_lp(
    profile: CostProfile,
    window: int = 3,
    intra_gpu: bool = True,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """Full HIOS-LP: LP-based inter-GPU mapping + Alg. 2 regrouping.

    Set ``intra_gpu=False`` for the paper's "inter-GPU w/ LP" ablation
    (spatial mapping with sequential per-GPU execution).
    ``spatial_cache`` shares the window-independent Alg. 1 phase across
    calls on the same profile (see :func:`cached_spatial_lp`).
    """
    t0 = time.perf_counter()
    cache_hits0 = profile.stage_time_cache_hits
    counters = EvalCounters()
    assignment, order, paths = cached_spatial_lp(
        profile, counters=counters, spatial_cache=spatial_cache
    )
    t_spatial = time.perf_counter() - t0
    schedule: Schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    latency = soa_latency(profile, schedule, validate=True, counters=counters)
    stats: dict[str, object] = {"paths": paths, "inter_gpu_latency": latency}
    phase_times: dict[str, float] = {"spatial_mapping": t_spatial}

    if intra_gpu:
        t1 = time.perf_counter()
        schedule, latency, intra_stats = parallelize(
            profile,
            schedule,
            window=window,
            priority=order,
            validate=False,  # singleton schedule was validated just above
            counters=counters,
        )
        phase_times["intra_gpu"] = time.perf_counter() - t1
        stats["intra_gpu"] = intra_stats

    counters.cache_hits = profile.stage_time_cache_hits - cache_hits0
    stats.update(counters.to_stats())
    stats["phase_times"] = phase_times
    algorithm = "hios-lp" if intra_gpu else "inter-lp"
    debug_lint_schedule(
        profile.graph,
        schedule,
        algorithm=algorithm,
        window=window if intra_gpu else None,
    )
    return ScheduleResult(
        algorithm=algorithm,
        schedule=schedule,
        latency=latency,
        scheduling_time=time.perf_counter() - t0,
        stats=stats,
    )


def schedule_inter_gpu_lp(
    profile: CostProfile,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """The "inter-GPU w/ LP" comparison point (no Alg. 2 pass)."""
    return schedule_hios_lp(profile, intra_gpu=False, spatial_cache=spatial_cache)
