"""HIOS-MR — mapping-recording-based operator scheduling (Alg. 3).

Operators are mapped one at a time in descending priority order.  An
``n x M`` table records, for every (operator ``v_i``, GPU ``j``) pair,
the earliest finish time ``t_{i,j}`` achievable when ``v_i`` runs on
GPU ``j`` — together with ``g_{i,j}``, the GPU that ``v_{i-1}`` was
mapped to in the recorded schedule attaining that finish time.  Each
cell is filled by replaying the ``min(M, i-1)`` recorded schedules of
the previous operator (reconstructed by walking the ``g`` pointers) and
placing ``v_i`` at its earliest start under GPU-availability and
data-dependency constraints.  Backtracking from the best final cell
yields the spatial mapping; Alg. 2 then regroups within each GPU.

This is the paper's *local* greedy alternative to HIOS-LP: it never
reasons about whole paths, so it tends to split dependent chains across
GPUs and pay avoidable transfers — the behaviour Figs. 7-13 quantify.
"""

from __future__ import annotations

import time
from typing import Any, MutableMapping, cast

import numpy as np

from ..costmodel.profile import CostProfile
from .debuglint import debug_lint_schedule
from .fasteval import EvalCounters, soa_latency
from .intra_gpu import parallelize
from .list_schedule import build_singleton_schedule
from .priority import priority_order
from .result import ScheduleResult

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
    """Vectorized Alg. 3 fill of the ``(t, g)`` table, rows ``1 .. n-1``.

    Each row is computed as one ``(k, j)`` numpy block instead of a
    per-cell reconstruction of every recorded schedule: the per-GPU free
    arrays of all ``M`` recorded states ride along as an ``(M, M)``
    matrix, the ``g``-pointer chain walk down to the deepest predecessor
    is a gather shared by every ``k`` at once, and the strict ``<``
    update over ascending ``k`` collapses to a masked column ``min`` /
    first-occurrence ``argmin`` (a sequence of strict improvements
    lands on exactly the smallest ``k`` attaining the column minimum).
    The result is bit-identical to the per-cell fill in
    ``tests/oracles`` because minima and maxima are selections and the
    per-cell arithmetic (``t + tr``, ``ready + cost/speed``) performs
    the same float operations; ``np.where`` keeps the ``mu == j`` branch
    free of any ``+ 0.0`` rewriting.  Rows of the free matrix belonging
    to unreachable states carry garbage — the validity mask drops them,
    as the per-cell fill skips infinite cells.
    """
    graph = profile.graph
    M = profile.num_gpus
    n = len(order)
    if n <= 1:
        return
    hetero = profile.heterogeneous
    T = np.full((n, M), _INF, dtype=np.float64)
    T[0] = t_tab[0]
    G = np.zeros((n, M), dtype=np.int64)
    speeds_arr = np.asarray(speeds, dtype=np.float64)
    js = np.arange(M)
    free = np.zeros((M, M), dtype=np.float64)  # free[k] = state (i-1, k)
    free[js, js] = np.maximum(free[js, js], T[0])
    for i in range(1, n):
        v = order[i]
        cost_div = graph.cost(v) / speeds_arr
        preds = [
            (index[u], graph.transfer(u, v))
            for u in graph.predecessors(v)
            if index[u] < i
        ]
        num_j = M if hetero else min(M, i + 1)
        num_k = M if hetero else min(M, i)
        valid_k = T[i - 1, :num_k] < _INF
        # chain GPUs of the predecessors, for every k in one walk
        chain: dict[int, np.ndarray] = {}
        if preds:
            pred_pos = {l for l, _tr in preds}
            m_vec = np.arange(M)
            for l in range(i - 1, min(pred_pos) - 1, -1):
                if l in pred_pos:
                    chain[l] = m_vec
                m_vec = G[l][m_vec]
        ready = free.copy()
        for l, tr in preds:
            mu = chain[l]
            base = T[l, mu][:, None]
            dep = np.where(mu[:, None] != js[None, :], base + tr, base)
            ready = np.maximum(ready, dep)
        cand = ready[:num_k] + cost_div[None, :]
        cand = np.where(valid_k[:, None], cand, _INF)
        vals = cand.min(axis=0)
        ks = cand.argmin(axis=0)  # first occurrence == smallest winning k
        T[i, :num_j] = vals[:num_j]
        G[i, :num_j] = ks[:num_j]
        free = free[G[i]]
        free[js, js] = np.maximum(free[js, js], T[i])
    for i in range(1, n):
        t_tab[i][:] = T[i].tolist()
        g_tab[i][:] = G[i].tolist()


def _mr_spatial_mapping(profile: CostProfile) -> tuple[dict[str, int], list[str]]:
    """Fill the (t, g) table and backtrack the operator-to-GPU mapping."""
    graph = profile.graph
    M = profile.num_gpus
    order = priority_order(graph)
    n = len(order)
    if n == 0:
        return {}, order
    index = {v: i for i, v in enumerate(order)}

    speeds = [profile.gpu_speed(j) for j in range(M)]
    t_tab = [[_INF] * M for _ in range(n)]
    g_tab = [[0] * M for _ in range(n)]
    if profile.heterogeneous:
        # extension: with mixed speeds v_1's GPU matters; seed every column
        for j in range(M):
            t_tab[0][j] = graph.cost(order[0]) / speeds[j]
        # g pointers of row 0 are unused (backtracking stops there)
    else:
        t_tab[0][0] = graph.cost(order[0])  # v_1 on GPU 1 (homogeneity)

    _mr_fill(profile, order, index, speeds, t_tab, g_tab)

    best_j = min(range(M), key=lambda j: t_tab[n - 1][j])
    assignment: dict[str, int] = {}
    m = best_j
    for i in range(n - 1, -1, -1):
        assignment[order[i]] = m
        m = g_tab[i][m]
    return assignment, order


def cached_spatial_mr(
    profile: CostProfile,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> tuple[dict[str, int], list[str]]:
    """MR spatial mapping, optionally served from a per-workload cache.

    The MR table fill depends only on the profile, so one computation
    serves ``hios-mr`` at every window and ``inter-mr`` alike — the
    same sharing seam as :func:`repro.core.hios_lp.cached_spatial_lp`.
    Stores and hands out copies; hits are bit-identical to fresh runs.
    """
    if spatial_cache is not None:
        hit = spatial_cache.get("mr")
        if hit is not None:
            assignment, order = cast("tuple[dict[str, int], list[str]]", hit)
            return dict(assignment), list(order)
    assignment, order = _mr_spatial_mapping(profile)
    if spatial_cache is not None:
        spatial_cache["mr"] = (dict(assignment), list(order))
    return assignment, order


def schedule_hios_mr(
    profile: CostProfile,
    window: int = 3,
    intra_gpu: bool = True,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """Full HIOS-MR: MR-based inter-GPU mapping + Alg. 2 regrouping.

    Set ``intra_gpu=False`` for the paper's "inter-GPU w/ MR" ablation.
    ``spatial_cache`` shares the window-independent mapping phase across
    calls on the same profile.
    """
    t0 = time.perf_counter()
    cache_hits0 = profile.stage_time_cache_hits
    counters = EvalCounters()
    assignment, order = cached_spatial_mr(profile, spatial_cache=spatial_cache)
    t_spatial = time.perf_counter() - t0
    schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    latency = soa_latency(profile, schedule, validate=True, counters=counters)
    stats: dict[str, object] = {"inter_gpu_latency": latency}
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

    algorithm = "hios-mr" if intra_gpu else "inter-mr"
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


def schedule_inter_gpu_mr(
    profile: CostProfile,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """The "inter-GPU w/ MR" comparison point (no Alg. 2 pass)."""
    return schedule_hios_mr(profile, intra_gpu=False, spatial_cache=spatial_cache)
