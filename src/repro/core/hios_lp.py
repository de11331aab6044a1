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
operators into concurrent stages.  :func:`schedule_hios` runs that
hierarchy for every HIOS registry entry: HIOS-MR
(:mod:`repro.core.hios_mr`) and HIOS-LP + local search
(:mod:`repro.core.refine`) swap in their own spatial phase.

Both passes run on the incremental engine of :mod:`repro.core.fasteval`:
prefix-replay across the ``M`` GPU candidates of one path (each path's
prefix simulation resuming where the previous path's stopped),
stage-graph deltas across window candidates.
"""

from __future__ import annotations

import time
from typing import Any, Callable, MutableMapping

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

__all__ = [
    "SpatialMapping", "cached_spatial_lp", "memo_spatial", "schedule_hios", "schedule_hios_lp",
    "schedule_inter_gpu_lp",
]

#: One inter-GPU mapping: operator -> GPU, the priority order it was
#: built in, and the phase's own stats (e.g. ``{"paths": 7}`` for Alg. 1).
SpatialMapping = tuple[dict[str, int], list[str], dict[str, object]]


#: ``spatial(profile, counters=..., spatial_cache=...)``: ``cached_spatial_lp``
#: or :func:`repro.core.hios_mr.cached_spatial_mr`.
SpatialPhase = Callable[..., SpatialMapping]
#: ``local_search(profile, assignment, order, counters=...)`` ->
#: ``(assignment, latency, moves)``, as
#: :func:`repro.core.refine.local_search_assignment`.
LocalSearch = Callable[..., tuple[dict[str, int], float, int]]


def _lp_spatial_mapping(
    profile: CostProfile,
    counters: EvalCounters | None = None,
) -> SpatialMapping:
    """Run the iterative longest-path mapping; its stats count the
    extracted paths."""
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

    return assignment, order, {"paths": paths}


def memo_spatial(
    key: str,
    compute: Callable[[], SpatialMapping],
    spatial_cache: MutableMapping[str, Any] | None,
) -> SpatialMapping:
    """``compute()``, served from ``spatial_cache[key]`` when present.

    A spatial mapping depends only on the profile, not on the Alg. 2
    window, so one computation serves a family's every window, its
    ``inter-*`` entry and ``hios-lp-ls`` (sweep workers share it;
    warm-started repairs seed it).  Copies go in and out, so no caller
    can corrupt another's view.  A hit skips the phase: its decision-log
    events are not re-emitted and its counters do not re-accumulate.
    """
    if spatial_cache is not None and key in spatial_cache:
        assignment, order, stats = spatial_cache[key]
        return dict(assignment), list(order), dict(stats)
    assignment, order, stats = compute()
    if spatial_cache is not None:
        spatial_cache[key] = (dict(assignment), list(order), dict(stats))
    return assignment, order, stats


def cached_spatial_lp(
    profile: CostProfile,
    counters: EvalCounters | None = None,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> SpatialMapping:
    """The Alg. 1 mapping, memoized as ``spatial_cache["lp"]``."""
    return memo_spatial("lp", lambda: _lp_spatial_mapping(profile, counters), spatial_cache)


def schedule_hios(
    profile: CostProfile,
    algorithm: str,
    spatial: SpatialPhase,
    window: int | None,
    spatial_cache: MutableMapping[str, Any] | None = None,
    local_search: LocalSearch | None = None,
) -> ScheduleResult:
    """The HIOS hierarchy shared by every HIOS registry entry.

    ``spatial`` maps operators to GPUs, ``local_search`` (when given)
    refines that mapping, the singleton schedule is evaluated, and with
    a ``window`` the Alg. 2 pass regroups each GPU's operators into
    concurrent stages; ``window=None`` keeps the sequential per-GPU
    execution of the paper's "inter-GPU only" ablations.  Callers pass
    ``spatial`` as their own module binds it, and the evaluation and
    Alg. 2 calls go through this module's names, so a wrapper or an
    oracle installed on a module attribute sees every HIOS run.
    """
    t0 = time.perf_counter()
    cache_hits0 = profile.stage_time_cache_hits
    counters = EvalCounters()
    assignment, order, stats = spatial(profile, counters=counters, spatial_cache=spatial_cache)
    phase_times: dict[str, float] = {"spatial_mapping": time.perf_counter() - t0}
    if local_search is not None:
        t1 = time.perf_counter()
        assignment, _, stats["local_search_moves"] = local_search(
            profile, assignment, order, counters=counters
        )
        phase_times["local_search"] = time.perf_counter() - t1
    schedule: Schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    latency = soa_latency(profile, schedule, validate=True, counters=counters)
    stats["inter_gpu_latency"] = latency

    if window is not None:
        t1 = time.perf_counter()
        schedule, latency, stats["intra_gpu"] = parallelize(
            profile,
            schedule,
            window=window,
            priority=order,
            validate=False,  # singleton schedule was validated just above
            counters=counters,
        )
        phase_times["intra_gpu"] = time.perf_counter() - t1

    counters.cache_hits = profile.stage_time_cache_hits - cache_hits0
    stats.update(counters.to_stats())
    stats["phase_times"] = phase_times
    debug_lint_schedule(profile.graph, schedule, algorithm=algorithm, window=window)
    return ScheduleResult(
        algorithm=algorithm,
        schedule=schedule,
        latency=latency,
        scheduling_time=time.perf_counter() - t0,
        stats=stats,
    )


def schedule_hios_lp(
    profile: CostProfile,
    window: int = 3,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """Full HIOS-LP: LP-based inter-GPU mapping + Alg. 2 regrouping.

    ``spatial_cache`` shares the window-independent Alg. 1 phase across
    calls on the same profile (see :func:`memo_spatial`).
    """
    return schedule_hios(profile, "hios-lp", cached_spatial_lp, window, spatial_cache)


def schedule_inter_gpu_lp(
    profile: CostProfile,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """The "inter-GPU w/ LP" comparison point (no Alg. 2 pass)."""
    return schedule_hios(profile, "inter-lp", cached_spatial_lp, None, spatial_cache)
