"""Local-search refinement of inter-GPU mappings (extension).

The paper maps whole longest paths (HIOS-LP) or single operators
(HIOS-MR) greedily and never revisits a placement.  This module adds a
post-pass the paper leaves on the table: operator-level best-improvement
local search over the spatial assignment — repeatedly move the single
operator whose reassignment to another GPU most reduces the
list-scheduled latency, until a fixed point or a round budget.

``schedule_hios_lp_ls`` packages it as "HIOS-LP + local search":
Alg. 1 spatial mapping -> local search -> Alg. 2 intra-GPU pass.  The
ablation benchmarks quantify how much headroom the greedy path mapping
leaves (typically a few percent on the Section V workloads).
"""

from __future__ import annotations

import time
from typing import Any, Mapping, MutableMapping

from ..costmodel.profile import CostProfile
from .debuglint import debug_lint_schedule
from .fasteval import EvalCounters, PrefixReplayer, soa_latency
from .hios_lp import cached_spatial_lp
from .intra_gpu import parallelize
from .list_schedule import build_singleton_schedule, list_schedule_latency
from .result import ScheduleResult

__all__ = ["local_search_assignment", "schedule_hios_lp_ls"]


def local_search_assignment(
    profile: CostProfile,
    assignment: Mapping[str, int],
    order: list[str],
    max_rounds: int = 3,
    counters: EvalCounters | None = None,
) -> tuple[dict[str, int], float, int]:
    """Best-improvement local search over operator-to-GPU moves.

    Returns ``(assignment, latency, moves)``.  Each round scans every
    operator against every other GPU and applies the single best move;
    a round without improvement terminates the search.  Complexity is
    ``O(rounds * |V| * M * (|V| + |E|))`` — polynomial, like the HIOS
    passes it refines.  The per-move evaluation replays only the suffix
    after the moved operator's snapshot boundary (one prefix simulation
    per operator instead of one full simulation per (operator, GPU)
    pair); within a round each snapshot resumes where the previous
    operator's stopped unless its boundary moved back.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    graph = profile.graph
    M = profile.num_gpus
    current = dict(assignment)
    best = list_schedule_latency(
        graph, current, order, M,
        send_blocking=profile.send_blocking, gpu_speeds=profile.gpu_speeds,
    )
    replayer = PrefixReplayer(
        graph, M,
        send_blocking=profile.send_blocking,
        gpu_speeds=profile.gpu_speeds,
        counters=counters,
    )
    moves = 0
    for _ in range(max_rounds):
        # the best move carries the latency it was priced at, so
        # applying it needs no re-evaluation
        best_move: tuple[str, int, float] | None = None
        best_gain = 1e-12
        for v in order:
            home = current[v]
            replayer.snapshot(order, current, (v,))
            for gpu in range(M):
                if gpu == home:
                    continue
                current[v] = gpu
                lat = replayer.replay(current)
                gain = best - lat
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, gpu, lat)
            current[v] = home
        if best_move is None:
            break
        v, gpu, best = best_move
        current[v] = gpu
        moves += 1
    return current, best, moves


def schedule_hios_lp_ls(
    profile: CostProfile,
    window: int = 3,
    intra_gpu: bool = True,
    max_rounds: int = 3,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """HIOS-LP with operator-level local search between Alg. 1 and Alg. 2."""
    t0 = time.perf_counter()
    cache_hits0 = profile.stage_time_cache_hits
    counters = EvalCounters()
    assignment, order, paths = cached_spatial_lp(
        profile, counters=counters, spatial_cache=spatial_cache
    )
    t_spatial = time.perf_counter() - t0
    assignment, _, moves = local_search_assignment(
        profile, assignment, order, max_rounds=max_rounds, counters=counters
    )
    t_search = time.perf_counter() - t0 - t_spatial
    schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    latency = soa_latency(profile, schedule, validate=True, counters=counters)
    stats: dict[str, object] = {
        "paths": paths,
        "local_search_moves": moves,
        "inter_gpu_latency": latency,
    }
    phase_times: dict[str, float] = {
        "spatial_mapping": t_spatial,
        "local_search": t_search,
    }
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
    debug_lint_schedule(
        profile.graph,
        schedule,
        algorithm="hios-lp-ls",
        window=window if intra_gpu else None,
    )
    return ScheduleResult(
        algorithm="hios-lp-ls",
        schedule=schedule,
        latency=latency,
        scheduling_time=time.perf_counter() - t0,
        stats=stats,
    )
