"""HIOS-MR — mapping-recording-based operator scheduling (Alg. 3).

Operators are mapped one at a time in descending priority order.  An
``n x M`` table records, for every (operator ``v_i``, GPU ``j``) pair,
the earliest finish time ``t_{i,j}`` achievable when ``v_i`` runs on
GPU ``j`` — together with ``g_{i,j}``, the GPU that ``v_{i-1}`` was
mapped to in the recorded schedule attaining that finish time.  Each
cell is filled by replaying the ``min(M, i-1)`` recorded schedules of
the previous operator (carried from row to row as plain lists, see
:func:`_mr_fill`) and placing ``v_i`` at its earliest start under
GPU-availability and data-dependency constraints.  Backtracking from
the best final cell yields the spatial mapping; Alg. 2 then regroups
within each GPU (:func:`repro.core.hios_lp.schedule_hios` runs the
hierarchy).

This is the paper's *local* greedy alternative to HIOS-LP: it never
reasons about whole paths, so it tends to split dependent chains across
GPUs and pay avoidable transfers — the behaviour Figs. 7-13 quantify.
"""

from __future__ import annotations

from typing import Any, MutableMapping

from ..costmodel.profile import CostProfile
from .fasteval import EvalCounters, soa_latency  # noqa: F401
from .hios_lp import SpatialMapping, memo_spatial, schedule_hios
from .intra_gpu import parallelize  # noqa: F401
from .priority import priority_order
from .result import ScheduleResult

# ``schedule_hios`` calls ``soa_latency`` and ``parallelize`` through
# its own module; they stay bound here because benchmarks/e2e/spans.py
# wraps them per module.

__all__ = ["cached_spatial_mr", "schedule_hios_mr", "schedule_inter_gpu_mr"]

_INF = float("inf")


def _mr_fill(
    profile: CostProfile,
    order: list[str],
    index: dict[str, int],
    speeds: list[float],
    t_tab: list[list[float]],
    g_tab: list[list[int]],
) -> None:
    """Alg. 3 fill of the ``(t, g)`` table, rows ``1 .. n-1``: a scalar
    DP over plain lists.

    Each reachable state ``(i-1, k)`` — the recorded schedule ending
    with ``v_{i-1}`` on GPU ``k`` — carries its per-GPU free times and
    the GPU of each of ``v_0 .. v_{i-1}``, so row ``i`` reads a
    predecessor's finish time and GPU once per state instead of walking
    the ``g`` pointers back to it.  State ``(i, j)`` takes the lists of
    state ``(i-1, g[i][j])``, appends ``j`` and raises GPU ``j``'s free
    time to ``t[i][j]``.  States are tried in ascending ``k`` and a cell
    updates only on a strict ``<``, so the smallest winning ``k`` stays;
    the arithmetic (``t + tr``, ``ready + cost/speed``) is the per-cell
    fill's in ``tests/oracles``, so the table is bit-identical to it.
    """
    graph = profile.graph
    M = profile.num_gpus
    hetero = profile.heterogeneous
    # the previous row's states (empty when unreachable); row 0 extends
    # the empty schedule, state 0, through its all-zero g pointers
    free: list[list[float]] = [[0.0] * M]
    gpus: list[list[int]] = [[]]
    for i, v in enumerate(order):
        t_row = t_tab[i]
        g_row = g_tab[i]
        if i:
            t_prev = t_tab[i - 1]
            cost = graph.cost(v)
            dur = [cost / speed for speed in speeds]
            preds = [
                (index[u], graph.transfer(u, v))
                for u in graph.predecessors(v)
                if index[u] < i
            ]
            # the min(M, i) symmetry pruning assumes interchangeable GPUs
            num_j = M if hetero else min(M, i + 1)
            num_k = M if hetero else min(M, i)
            for k in range(num_k):
                if not t_prev[k] < _INF:
                    continue
                fr = free[k]
                gl = gpus[k]
                deps: list[tuple[int, float, float]] = []
                for p, tr in preds:
                    mu = gl[p]
                    fin = t_tab[p][mu]
                    deps.append((mu, fin, fin + tr))
                for j in range(num_j):
                    ready = fr[j]
                    for mu, fin, far in deps:
                        dep = fin if mu == j else far
                        if dep > ready:
                            ready = dep
                    cand = ready + dur[j]
                    if cand < t_row[j]:
                        t_row[j] = cand
                        g_row[j] = k
        nxt_free: list[list[float]] = [[]] * M
        nxt_gpus: list[list[int]] = [[]] * M
        for j, t in enumerate(t_row):
            if t < _INF:
                k = g_row[j]
                row = list(free[k])
                if t > row[j]:
                    row[j] = t
                nxt_free[j] = row
                nxt_gpus[j] = gpus[k] + [j]
        free, gpus = nxt_free, nxt_gpus


def _mr_spatial_mapping(profile: CostProfile) -> SpatialMapping:
    """Fill the (t, g) table and backtrack the operator-to-GPU mapping."""
    graph = profile.graph
    M = profile.num_gpus
    order = priority_order(graph)
    n = len(order)
    if n == 0:
        return {}, order, {}
    index = {v: i for i, v in enumerate(order)}

    speeds = [profile.gpu_speed(j) for j in range(M)]
    t_tab = [[_INF] * M for _ in range(n)]
    g_tab = [[0] * M for _ in range(n)]
    # v_1 on GPU 1 (homogeneity); with mixed speeds (extension) v_1's GPU
    # matters, so every column is seeded
    for j in range(M if profile.heterogeneous else 1):
        t_tab[0][j] = graph.cost(order[0]) / speeds[j]

    _mr_fill(profile, order, index, speeds, t_tab, g_tab)

    best_j = min(range(M), key=lambda j: t_tab[n - 1][j])
    assignment: dict[str, int] = {}
    m = best_j
    for i in range(n - 1, -1, -1):
        assignment[order[i]] = m
        m = g_tab[i][m]
    return assignment, order, {}


def cached_spatial_mr(
    profile: CostProfile,
    counters: EvalCounters | None = None,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> SpatialMapping:
    """The Alg. 3 mapping, memoized as ``spatial_cache["mr"]`` (see
    :func:`repro.core.hios_lp.memo_spatial`).  The table fill prices its
    cells itself, so ``counters`` is left as it is."""
    return memo_spatial("mr", lambda: _mr_spatial_mapping(profile), spatial_cache)


def schedule_hios_mr(
    profile: CostProfile,
    window: int = 3,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """Full HIOS-MR: MR-based inter-GPU mapping + Alg. 2 regrouping.

    ``spatial_cache`` shares the window-independent mapping phase across
    calls on the same profile.
    """
    return schedule_hios(profile, "hios-mr", cached_spatial_mr, window, spatial_cache)


def schedule_inter_gpu_mr(
    profile: CostProfile,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """The "inter-GPU w/ MR" comparison point (no Alg. 2 pass)."""
    return schedule_hios(profile, "inter-mr", cached_spatial_mr, None, spatial_cache)
