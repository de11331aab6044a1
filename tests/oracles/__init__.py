"""From-scratch reference implementations of the scheduler components.

``repro.core`` has exactly one implementation of each scheduler step,
built for the inner loops: incremental and int-lowered onto plain
lists (the Alg. 1 replay onto per-operator tuples, the Alg. 3 fill onto
per-state lists carried from row to row).  The
straightforward versions they were derived from live here as test
oracles, and the differential tests hold every production component to
*bit-identity* with them — exact float equality, not closeness:

============================= ========================================
oracle                        production component
============================= ========================================
:func:`evaluate_schedule`     ``StageGraphEvaluator`` (stage DP)
:func:`list_schedule_latency` ``PrefixReplayer`` (Alg. 1 l. 10-13)
:func:`longest_valid_path`    ``LongestPathEngine`` (Alg. 1 l. 5)
:func:`mr_fill`               ``hios_mr._mr_fill`` (Alg. 3 table fill)
:func:`schedule_key`          ``schedcache.schedule_key`` (spliced key)
============================= ========================================

:func:`reference_components` swaps the oracles in behind the names the
schedulers look up at call time, so a whole scheduler run can be
compared with — or timed against — the same run on the references.
:func:`schedule_brute_force` (``brute_force.py``) is the exhaustive
optimum the schedulers are checked against on graphs of a dozen
operators.  The package imports only ``repro``, so the scheduling-cost
gate can use it outside pytest.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from contextlib import ExitStack, contextmanager
from typing import AbstractSet, Any
from unittest import mock

from repro.core import hios_lp, hios_mr, intra_gpu, ios, refine, sequential
from repro.core.evaluator import EvaluationResult, StageTiming
from repro.core.fasteval import EvalCounters
from repro.core.graph import GraphError, OpGraph
from repro.core.longest_path import ValidPath
from repro.core.schedule import Schedule, ScheduleError, Stage
from repro.costmodel.profile import CostProfile
from repro.sweep.keying import content_key
from repro.sweep.schedcache import SCHED_CACHE_FORMAT, concurrency_fingerprint

from .brute_force import schedule_brute_force

__all__ = [
    "evaluate_latency",
    "evaluate_schedule",
    "list_schedule_latency",
    "longest_valid_path",
    "mr_fill",
    "profile_fingerprint",
    "reference_components",
    "schedule_brute_force",
    "schedule_key",
]

_INF = float("inf")
_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Stage-graph evaluation (the Section III-A timing semantics)


def evaluate_schedule(
    profile: CostProfile, schedule: Schedule, validate: bool = True
) -> EvaluationResult:
    """Rebuild the stage graph and run Kahn's algorithm over it."""
    graph: OpGraph = profile.graph
    if validate:
        schedule.validate(graph)
    blocking = profile.send_blocking

    stages = schedule.all_stages()
    n = len(stages)
    op_stage: dict[str, int] = {}
    for idx, st in enumerate(stages):
        for op in st.ops:
            op_stage[op] = idx

    # Per stage: chain successor (next stage on the same GPU), local
    # data successors (gap 0), and remote data edges with their
    # transfer times.  Remote edges are ordered deterministically —
    # the order the sender's MPI process issues its blocking sends.
    chain_next: list[int | None] = [None] * n
    indices_by_gpu: dict[int, list[int]] = {}
    for idx, st in enumerate(stages):
        indices_by_gpu.setdefault(st.gpu, []).append(idx)
    for chain in indices_by_gpu.values():
        for a, b in zip(chain, chain[1:]):
            chain_next[a] = b
    local_succ: list[set[int]] = [set() for _ in range(n)]
    remote_edges: list[list[tuple[float, int, str, str]]] = [[] for _ in range(n)]
    for u, v, w in graph.edges():
        su, sv = op_stage[u], op_stage[v]
        if su == sv:
            raise ScheduleError(f"dependent operators {u!r} -> {v!r} share a stage")
        if stages[su].gpu == stages[sv].gpu:
            local_succ[su].add(sv)
        else:
            remote_edges[su].append((w, sv, u, v))
    for lst in remote_edges:
        # deterministic send order: producer then consumer name — the
        # same order the list scheduler issues blocking sends in
        lst.sort(key=lambda e: (e[2], e[3]))

    # in-degrees over all constraint kinds
    indeg = [0] * n
    for s in range(n):
        targets = set(local_succ[s])
        targets.update(sv for _, sv, _, _ in remote_edges[s])
        if chain_next[s] is not None:
            targets.add(chain_next[s])
        for t in targets:
            indeg[t] += 1
    succ_sets = [
        set(local_succ[s])
        | {sv for _, sv, _, _ in remote_edges[s]}
        | ({chain_next[s]} if chain_next[s] is not None else set())
        for s in range(n)
    ]

    duration = [profile.stage_time(st.ops, gpu=st.gpu) for st in stages]
    start = [0.0] * n
    finish = [0.0] * n
    ready = [i for i, d in enumerate(indeg) if d == 0]
    done = 0
    latency = 0.0
    while ready:
        s = ready.pop()
        done += 1
        fin = start[s] + duration[s]
        finish[s] = fin
        relax: dict[int, float] = {}
        if blocking:
            cursor = fin
            for w, sv, _u, _v in remote_edges[s]:
                cursor += w
                relax[sv] = max(relax.get(sv, 0.0), cursor)
            comm_done = cursor
        else:
            for w, sv, _u, _v in remote_edges[s]:
                relax[sv] = max(relax.get(sv, 0.0), fin + w)
            comm_done = fin
        for sv in local_succ[s]:
            relax[sv] = max(relax.get(sv, 0.0), fin)
        nxt = chain_next[s]
        if nxt is not None:
            relax[nxt] = max(relax.get(nxt, 0.0), comm_done)
        latency = max(latency, fin, comm_done)
        for t in succ_sets[s]:
            gap_start = relax.get(t, 0.0)
            if gap_start > start[t]:
                start[t] = gap_start
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if done != n:
        raise ScheduleError("stage graph contains a cycle")

    timings = tuple(
        StageTiming(stage=st, start=start[i], finish=finish[i])
        for i, st in enumerate(stages)
    )
    op_start = {op: start[i] for i, st in enumerate(stages) for op in st.ops}
    op_finish = {op: finish[i] for i, st in enumerate(stages) for op in st.ops}
    return EvaluationResult(
        latency=latency, stage_timings=timings, op_start=op_start, op_finish=op_finish
    )


def evaluate_latency(
    profile: CostProfile,
    schedule: Schedule,
    validate: bool = False,
    counters: EvalCounters | None = None,
) -> float:
    """Latency only; ``counters`` is accepted (and ignored) so this also
    stands in for ``soa_latency``."""
    return evaluate_schedule(profile, schedule, validate=validate).latency


# ---------------------------------------------------------------------------
# List scheduling (Alg. 1, lines 10-13)


def list_schedule_latency(
    graph: OpGraph,
    assignment: Mapping[str, int],
    order: Sequence[str],
    num_gpus: int,
    send_blocking: bool = True,
    gpu_speeds: Sequence[float] | None = None,
) -> float:
    """Simulate the whole order from scratch over name-keyed dicts."""
    finish: dict[str, float] = {}
    arrival: dict[tuple[str, str], float] = {}
    gpu_free = [0.0] * num_gpus
    latency = 0.0
    for v in order:
        g = assignment[v]
        start = gpu_free[g]
        for u in graph.predecessors(v):
            gu = assignment.get(u)
            if gu is None:
                continue  # still unscheduled in this HIOS-LP iteration
            if gu == g:
                ready = finish[u]
            elif send_blocking:
                ready = arrival[(u, v)]
            else:
                ready = finish[u] + graph.transfer(u, v)
            if ready > start:
                start = ready
        speed = 1.0 if gpu_speeds is None else gpu_speeds[g]
        end = start + graph.cost(v) / speed
        finish[v] = end
        if send_blocking:
            # issue this operator's cross-GPU sends as serialized
            # blocking sends, in deterministic consumer-name order
            # (matching the evaluator's send order)
            cursor = end
            for s in sorted(graph.successors(v)):
                gs = assignment.get(s)
                if gs is None or gs == g:
                    continue
                cursor += graph.transfer(v, s)
                arrival[(v, s)] = cursor
            gpu_free[g] = cursor
            if cursor > latency:
                latency = cursor
        else:
            gpu_free[g] = end
        if end > latency:
            latency = end
    return latency


# ---------------------------------------------------------------------------
# Longest valid path (Alg. 1, line 5)


def longest_valid_path(graph: OpGraph, unscheduled: AbstractSet[str]) -> ValidPath:
    """Two dict-keyed DP passes over the unscheduled subgraph, with a
    fresh topological sort and neighbour walks per call."""
    if not unscheduled:
        raise GraphError("no unscheduled vertices left")
    for v in unscheduled:
        if v not in graph:
            raise GraphError(f"unscheduled vertex {v!r} not in graph")

    scheduled = {v for v in graph.names if v not in unscheduled}

    # A vertex is *free* when it has no edge to or from the scheduled
    # subgraph; only free vertices may appear in a path's interior.
    free: set[str] = set()
    start_bonus: dict[str, float] = {}
    end_bonus: dict[str, float] = {}
    for v in unscheduled:
        in_sched = [u for u in graph.predecessors(v) if u in scheduled]
        out_sched = [s for s in graph.successors(v) if s in scheduled]
        if not in_sched and not out_sched:
            free.add(v)
        start_bonus[v] = max((graph.transfer(u, v) for u in in_sched), default=0.0)
        end_bonus[v] = max((graph.transfer(v, s) for s in out_sched), default=0.0)

    # ``tail[v]``: best length of a valid path in which ``v`` is NOT the
    # first vertex (so continuing past ``v`` requires ``v`` to be free),
    # counting t(v), downstream weights and the final anchor edge.
    order = [v for v in graph.topological_order() if v in unscheduled]
    tail: dict[str, float] = {}
    tail_next: dict[str, str | None] = {}
    for v in reversed(order):
        best = end_bonus[v]
        best_next: str | None = None
        if v in free:
            for s in sorted(graph.successors(v)):
                if s not in unscheduled:
                    continue
                cand = graph.transfer(v, s) + tail[s]
                if cand > best:
                    best = cand
                    best_next = s
        tail[v] = graph.cost(v) + best
        tail_next[v] = best_next

    # ``head[v]``: best length of a valid path whose FIRST vertex is
    # ``v`` (exempt from the free constraint), excluding the start
    # anchor bonus.
    best_start: str | None = None
    best_len = _NEG_INF
    head_next: dict[str, str | None] = {}
    for v in order:
        best = end_bonus[v]
        nxt: str | None = None
        for s in sorted(graph.successors(v)):
            if s not in unscheduled:
                continue
            cand = graph.transfer(v, s) + tail[s]
            if cand > best:
                best = cand
                nxt = s
        head_next[v] = nxt
        total = start_bonus[v] + graph.cost(v) + best
        if total > best_len or (total == best_len and best_start is not None and v < best_start):
            best_len = total
            best_start = v

    assert best_start is not None
    path = [best_start]
    cursor = head_next[best_start]
    while cursor is not None:
        path.append(cursor)
        cursor = tail_next[cursor]
    return ValidPath(vertices=tuple(path), length=best_len)


# ---------------------------------------------------------------------------
# HIOS-MR table fill (Alg. 3)


def mr_fill(
    profile: CostProfile,
    order: list[str],
    index: dict[str, int],
    speeds: list[float],
    t_tab: list[list[float]],
    g_tab: list[list[int]],
) -> None:
    """Reconstruct every recorded schedule from scratch by walking the
    full ``g`` pointer chain per (i, k) state, then price each cell with
    a strict ``<`` over ascending ``k`` (the smallest winning ``k``
    stays)."""
    graph = profile.graph
    M = profile.num_gpus
    n = len(order)
    for i in range(1, n):
        v = order[i]
        cost_v = graph.cost(v)
        preds = [u for u in graph.predecessors(v) if index[u] < i]
        # the min(M, i) symmetry pruning assumes interchangeable GPUs;
        # with heterogeneous speeds every GPU is distinct
        num_j = M if profile.heterogeneous else min(M, i + 1)
        num_k = M if profile.heterogeneous else min(M, i)
        for k in range(num_k):
            if t_tab[i - 1][k] == _INF:
                continue
            # Reconstruct the recorded schedule ending with v_{i-1} on
            # GPU k: finish time and GPU of every earlier operator.
            finish: dict[str, float] = {}
            gpu_of: dict[str, int] = {}
            free = [0.0] * M
            m = k
            for l in range(i - 1, -1, -1):
                u = order[l]
                fin = t_tab[l][m]
                finish[u] = fin
                gpu_of[u] = m
                if fin > free[m]:
                    free[m] = fin
                m = g_tab[l][m]
            for j in range(num_j):
                ready = free[j]
                for u in preds:
                    dep = finish[u]
                    if gpu_of[u] != j:
                        dep += graph.transfer(u, v)
                    if dep > ready:
                        ready = dep
                cand = ready + cost_v / speeds[j]
                if cand < t_tab[i][j]:
                    t_tab[i][j] = cand
                    g_tab[i][j] = k


# ---------------------------------------------------------------------------
# Schedule-cache keys: the whole document, encoded at once


def profile_fingerprint(profile: CostProfile) -> dict[str, Any] | None:
    """Canonical content description of a :class:`CostProfile`, or
    ``None`` for an unknown concurrency model."""
    concurrency = concurrency_fingerprint(profile.concurrency)
    if concurrency is None:
        return None
    graph = profile.graph
    return {
        "ops": [[op.name, op.cost, op.occupancy] for op in graph.operators()],
        "edges": sorted(graph.edges()),
        "num_gpus": profile.num_gpus,
        "max_streams": profile.max_streams,
        "send_blocking": profile.send_blocking,
        "gpu_speeds": list(profile.gpu_speeds) if profile.gpu_speeds else None,
        "concurrency": concurrency,
    }


def schedule_key(
    profile: CostProfile, algorithm: str, kwargs: Mapping[str, Any] | None = None
) -> str | None:
    """SHA-256 of the canonical JSON of the whole key document, or
    ``None`` when canonical JSON rejects it (non-finite weights,
    non-JSON kwargs) or the profile has no fingerprint."""
    fingerprint = profile_fingerprint(profile)
    if fingerprint is None:
        return None
    material = {
        "format": SCHED_CACHE_FORMAT,
        "profile": fingerprint,
        "algorithm": algorithm,
        "kwargs": dict(kwargs or {}),
    }
    try:
        return content_key(material)
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Adapters: the oracles behind the production components' interfaces.
# They leave the evaluation counters alone, so a reference run reports
# zero ``evals`` / ``suffix_replays`` / ``window_delta_evals`` /
# ``window_skips`` / ``window_delay_skips`` / ``soa_evals``.


class _ListScheduleOracle:
    """``PrefixReplayer`` stand-in: every replay simulates the whole
    order with :func:`list_schedule_latency`."""

    def __init__(
        self,
        graph: OpGraph,
        num_gpus: int,
        send_blocking: bool = True,
        gpu_speeds: Sequence[float] | None = None,
        counters: EvalCounters | None = None,
    ) -> None:
        self._graph = graph
        self._num_gpus = num_gpus
        self._blocking = send_blocking
        self._speeds = gpu_speeds
        self._order: list[str] = []

    def snapshot(
        self, order: Sequence[str], assignment: Mapping[str, int], varying: object
    ) -> int:
        self._order = list(order)
        return 0  # nothing checkpointed: replays start at position 0

    def snapshot_path(
        self, order: Sequence[str], assignment: Mapping[str, int], path: Sequence[str]
    ) -> int:
        on_path = set(path)
        return self.snapshot(
            [v for v in order if v in assignment or v in on_path], assignment, path
        )

    def replay(self, assignment: Mapping[str, int]) -> float:
        return list_schedule_latency(
            self._graph, assignment, self._order, self._num_gpus,
            send_blocking=self._blocking, gpu_speeds=self._speeds,
        )


class _StageGraphOracle:
    """``StageGraphEvaluator`` stand-in: prices every window candidate
    (it never skips one) by rebuilding the merged schedule and
    evaluating it from scratch, and commits by keeping that rebuild."""

    def __init__(
        self,
        profile: CostProfile,
        schedule: Schedule,
        counters: EvalCounters | None = None,
    ) -> None:
        self._profile = profile
        self._schedule = schedule

    def evaluate(self) -> float:
        return evaluate_latency(self._profile, self._schedule)

    def _merged(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> Schedule:
        stages = self._schedule.stages_on(gpu)
        merged = stages[:pos] + [Stage(gpu, group)] + stages[pos + 1 + p :]
        return self._schedule.with_stages_on_gpu(gpu, merged)

    def try_merge(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> float | None:
        try:
            return evaluate_latency(self._profile, self._merged(gpu, pos, p, group))
        except ScheduleError:
            return None

    def skip_reason(
        self, gpu: int, pos: int, p: int, group: tuple[str, ...]
    ) -> str | None:
        return None

    def commit(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> float:
        self._schedule = self._merged(gpu, pos, p, group)
        return self.evaluate()


class _LongestPathOracle:
    """``LongestPathEngine`` stand-in: one from-scratch
    :func:`longest_valid_path` per query."""

    def __init__(self, graph: OpGraph, counters: EvalCounters | None = None) -> None:
        self._graph = graph

    def longest_valid_path(self, unscheduled: AbstractSet[str]) -> ValidPath:
        return longest_valid_path(self._graph, unscheduled)


#: (scheduler module, name it looks up at call time, oracle)
_SWAPS: tuple[tuple[object, str, object], ...] = (
    (hios_lp, "LongestPathEngine", _LongestPathOracle),
    (hios_lp, "PrefixReplayer", _ListScheduleOracle),
    (hios_lp, "soa_latency", evaluate_latency),
    (hios_mr, "_mr_fill", mr_fill),
    (intra_gpu, "StageGraphEvaluator", _StageGraphOracle),
    (ios, "soa_latency", evaluate_latency),
    (refine, "PrefixReplayer", _ListScheduleOracle),
    (sequential, "evaluate_latency", evaluate_latency),
)


@contextmanager
def reference_components() -> Iterator[None]:
    """Run every scheduler on the oracles for the duration of the block.

    Each swap replaces a module attribute the scheduler looks up at call
    time, and fails loudly if the attribute no longer exists.  Schedules
    and latencies must come out bit-identical to a production run; only
    the evaluation counters and the wall time differ.
    """
    with ExitStack() as stack:
        for module, name, oracle in _SWAPS:
            stack.enter_context(mock.patch.object(module, name, oracle))
        yield
