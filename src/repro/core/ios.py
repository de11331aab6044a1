"""IOS baseline — single-GPU inter-operator scheduling by dynamic
programming (Ding et al., MLSys'21), the paper's state-of-the-art
comparison point.

IOS partitions the graph into a sequence of stages on *one* GPU.  The
DP runs over *downsets* (predecessor-closed vertex subsets): from each
reached downset ``S`` it appends a stage ``T`` drawn from the ready set
of ``S`` (operators whose predecessors are all in ``S``; any subset of
the ready set is automatically an antichain) and relaxes
``dp[S ∪ T] = min(dp[S ∪ T], dp[S] + t(T))``.

The exact DP is exponential; IOS itself ships pruning knobs, and we
expose the same levers:

* ``max_stage_ops`` bounds the stage width (IOS's group-size pruning);
* ``max_enum`` restricts multi-operator stage enumeration to the
  highest-priority ready operators;
* ``beam_width`` keeps only the best states per downset size once the
  state count explodes (``mode="beam"``); ``mode="exact"`` disables
  beam pruning and is provably optimal, which the tests verify against
  brute force on small graphs; ``mode="auto"`` starts exact and falls
  back to beam search when ``state_limit`` is exceeded.

Downsets are represented as integer bitmasks over a fixed operator
ordering, keeping set algebra O(words) rather than O(elements) — the
vectorization-over-objects advice of the HPC guides applied to DP
states.
"""

from __future__ import annotations

import time
from itertools import combinations

from ..costmodel.profile import CostProfile
from .debuglint import debug_lint_schedule
from .fasteval import soa_latency
from .priority import priority_indicators
from .result import ScheduleResult
from .schedule import Schedule, Stage

__all__ = ["schedule_ios"]

_INF = float("inf")


def schedule_ios(
    profile: CostProfile,
    gpu: int = 0,
    max_stage_ops: int = 4,
    max_enum: int = 10,
    mode: str = "auto",
    beam_width: int = 4,
    state_limit: int = 20000,
) -> ScheduleResult:
    """Run the IOS DP on a single GPU and return the best stage sequence.

    Parameters mirror IOS's pruning configuration; see the module
    docstring.  The returned schedule places every stage on ``gpu``.
    """
    if mode not in ("exact", "beam", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_stage_ops < 1 or max_enum < 1 or beam_width < 1:
        raise ValueError("pruning parameters must be positive")
    t0 = time.perf_counter()
    graph = profile.graph
    if not (0 <= gpu < profile.num_gpus):
        raise ValueError(f"GPU index {gpu} out of range for {profile.num_gpus} GPUs")

    # Order operators by descending priority; higher-priority ops get
    # lower bit indices so candidate pools are cheap prefix slices.
    prio = priority_indicators(graph)
    names = sorted(graph.names, key=lambda v: (-prio[v], v))
    n = len(names)
    bit_of = {v: i for i, v in enumerate(names)}
    pred_mask = [0] * n
    for v in names:
        m = 0
        for u in graph.predecessors(v):
            m |= 1 << bit_of[u]
        pred_mask[bit_of[v]] = m

    width_cap = max_stage_ops
    if profile.max_streams:
        width_cap = min(width_cap, profile.max_streams)

    # dp state: bitmask of executed operators -> (latency, parent mask,
    # stage bit tuple).  Organized by popcount so beam pruning operates
    # level by level.
    best: dict[int, tuple[float, int, tuple[int, ...]]] = {0: (0.0, -1, ())}
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    by_size[0].append(0)
    beam_active = mode == "beam"
    states_created = 1
    full = (1 << n) - 1 if n else 0

    stage_time = profile.stage_time
    cache_hits0 = profile.stage_time_cache_hits
    # per-run stage price memo keyed on bit tuples: skips even the
    # name-tuple construction on the (dominant) repeated queries
    stage_cost: dict[tuple[int, ...], float] = {}

    for size in range(n):
        level = by_size[size]
        if not level:
            continue
        if beam_active and len(level) > beam_width:
            level = sorted(level, key=lambda s: best[s][0])[:beam_width]
        for state in level:
            lat = best[state][0]
            ready = [
                i
                for i in range(n)
                if not (state >> i) & 1 and (pred_mask[i] & ~state) == 0
            ]
            if not ready:
                continue
            pool = ready[:max_enum]  # ready is already priority-sorted
            cands: list[tuple[int, ...]] = [(i,) for i in ready]
            for s in range(2, min(width_cap, len(pool)) + 1):
                cands.extend(combinations(pool, s))
            for stage_bits in cands:
                mask = 0
                for i in stage_bits:
                    mask |= 1 << i
                new_state = state | mask
                t_stage = stage_cost.get(stage_bits)
                if t_stage is None:
                    t_stage = stage_time(tuple(names[i] for i in stage_bits))
                    stage_cost[stage_bits] = t_stage
                cand = lat + t_stage
                prev = best.get(new_state)
                if prev is None:
                    best[new_state] = (cand, state, stage_bits)
                    by_size[size + len(stage_bits)].append(new_state)
                    states_created += 1
                    if (
                        mode == "auto"
                        and not beam_active
                        and states_created > state_limit
                    ):
                        beam_active = True
                elif cand < prev[0]:
                    best[new_state] = (cand, state, stage_bits)

    if full not in best:
        raise RuntimeError("IOS DP failed to reach the full downset")

    # Backtrack the stage sequence.
    stages_rev: list[tuple[str, ...]] = []
    cursor = full
    while cursor:
        _, parent, stage_bits = best[cursor]
        stages_rev.append(tuple(names[i] for i in stage_bits))
        cursor = parent

    schedule = Schedule(profile.num_gpus)
    for stage_ops in reversed(stages_rev):
        schedule.append_stage(Stage(gpu, stage_ops))
    latency = soa_latency(profile, schedule, validate=True)
    debug_lint_schedule(profile.graph, schedule, algorithm="ios", window=width_cap)
    return ScheduleResult(
        algorithm="ios",
        schedule=schedule,
        latency=latency,
        scheduling_time=time.perf_counter() - t0,
        stats={
            "dp_states": states_created,
            "beam_used": beam_active,
            "num_stages": len(stages_rev),
            "cache_hits": profile.stage_time_cache_hits - cache_hits0,
        },
    )
