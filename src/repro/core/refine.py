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

from functools import partial
from typing import Any, Mapping, MutableMapping

from ..costmodel.profile import CostProfile
from .fasteval import EvalCounters, PrefixReplayer, soa_latency  # noqa: F401
from .hios_lp import cached_spatial_lp, schedule_hios
from .intra_gpu import parallelize  # noqa: F401
from .result import ScheduleResult

# ``schedule_hios`` calls ``soa_latency`` and ``parallelize`` through
# its own module; they stay bound here because benchmarks/e2e/spans.py
# wraps them per module.

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
    M = profile.num_gpus
    current = dict(assignment)
    replayer = PrefixReplayer(
        profile.graph, M,
        send_blocking=profile.send_blocking,
        gpu_speeds=profile.gpu_speeds,
        counters=counters,
    )
    # nothing varies: the snapshot simulates the whole order
    replayer.snapshot(order, current, ())
    best = replayer.replay(current)
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
    max_rounds: int = 3,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """HIOS-LP with operator-level local search between Alg. 1 and Alg. 2.

    ``stats["inter_gpu_latency"]`` is the refined mapping's latency
    before the Alg. 2 pass.
    """
    return schedule_hios(
        profile,
        "hios-lp-ls",
        cached_spatial_lp,
        window,
        spatial_cache,
        local_search=partial(local_search_assignment, max_rounds=max_rounds),
    )
