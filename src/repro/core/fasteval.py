"""Incremental evaluation engine for the scheduler inner loops.

The HIOS schedulers are *evaluation-bound*: almost all of their time is
spent pricing candidate schedules that differ from an already-priced
schedule in one small, known way.  Instead of re-simulating the entire
schedule for every candidate, this module exploits the known delta —
the engineering discipline IOS (Ding et al., MLSys'21) applies to its
DP states, applied to our three inner loops:

:class:`PrefixReplayer`
    Incremental list scheduling.  Across the ``M`` GPU candidates for
    one HIOS-LP path — and across the moves of one operator in the
    local-search pass — only the assignment of a known set of
    *varying* operators changes.  List scheduling processes operators
    in a fixed priority order and operator ``v``'s placement reads only
    (a) the assignment of ``v`` and its predecessors and, under the
    sender-blocking model, (b) the assignments of the successors of
    every operator processed so far.  Hence the simulated prefix up to
    the first operator that reads a varying assignment is *identical
    for every candidate*: :meth:`PrefixReplayer.snapshot` simulates it
    once and checkpoints ``(finish, arrival, gpu_free, latency)``;
    :meth:`PrefixReplayer.replay` re-simulates only the suffix.  A
    snapshot whose prefix extends the previous snapshot's resumes at
    that checkpoint instead of simulating from position 0.

:class:`StageGraphEvaluator`
    Stage-graph evaluation for Alg. 2, one per ``parallelize`` call.  A
    window candidate merges ``p+1`` consecutive singleton stages of one
    GPU into one stage, which can only move the stages downstream of
    it.  The evaluator keeps the committed stage DP's values and prices
    a candidate by re-running the DP over only the merged stage and
    that downstream *cone*; it answers without pricing the cone when a
    candidate touches no stage of the committed critical path, or when
    the merged stage alone already delays the next stage of that path
    (either way the candidate cannot be strictly faster); and it applies
    an accepted merge in place instead of being rebuilt.

    Internally the evaluator stores the stage graph as flat int-indexed
    lists (DESIGN.md §14): stage durations, GPU-chain predecessors,
    local sources, remote arrival slots and deduplicated successors,
    and the forward DP is a topological sweep over them — no per-stage
    dicts, sets or string keys in the inner loop.

:func:`soa_latency`
    One-shot evaluation of a committed schedule — the latency the
    schedulers' final evaluations report, and the body of
    :func:`repro.core.evaluator.evaluate_latency`.

All three are differentially tested bit-identical — latencies *and*
schedules — against the from-scratch references in ``tests/oracles``
(``tests/core/test_fasteval.py``).  :class:`EvalCounters` makes the
win observable through ``ScheduleResult.stats``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from ..costmodel.profile import CostProfile
from .graph import OpGraph
from .schedule import Schedule, ScheduleError

__all__ = [
    "SKIP_DELAYS_PATH",
    "SKIP_OFF_PATH",
    "EvalCounters",
    "PrefixReplayer",
    "StageGraphEvaluator",
    "soa_latency",
]


@dataclass
class EvalCounters:
    """Observable counters for the incremental engine.

    Attributes
    ----------
    evals:
        Full from-scratch evaluations: prefix simulations of the list
        scheduler plus stage-graph (re)builds and full DP runs.
    suffix_replays:
        List-schedule queries answered by replaying only the suffix
        after a :meth:`PrefixReplayer.snapshot` checkpoint.
    window_delta_evals:
        Alg. 2 window candidates that reached the
        :class:`StageGraphEvaluator`: priced over their cone, rejected
        as cyclic, or skipped.
    window_skips:
        Those of them skipped without pricing their cone
        (:meth:`StageGraphEvaluator.skip_reason`): they touch no stage
        of the committed critical path, or their merged stage delays
        the next stage of that path.
    window_delay_skips:
        Those skips for the second reason (the merged stage's own
        contribution to the next critical stage is at least that
        stage's committed start).
    soa_evals:
        Stage-DP runs over the int-indexed lists: full sweeps (committed
        evaluations and :func:`soa_latency` calls) plus cone re-runs of
        priced window candidates.
    cache_hits:
        ``CostProfile.stage_time`` memo hits observed during the run
        (filled in by the schedulers from the profile's counter).
    """

    evals: int = 0
    suffix_replays: int = 0
    window_delta_evals: int = 0
    window_skips: int = 0
    window_delay_skips: int = 0
    soa_evals: int = 0
    cache_hits: int = 0

    def to_stats(self) -> dict[str, int]:
        return {
            "evals": self.evals,
            "suffix_replays": self.suffix_replays,
            "window_delta_evals": self.window_delta_evals,
            "window_skips": self.window_skips,
            "window_delay_skips": self.window_delay_skips,
            "soa_evals": self.soa_evals,
            "cache_hits": self.cache_hits,
        }


class PrefixReplayer:
    """Prefix-state snapshotting for the temporal list scheduler.

    Semantically equivalent to list-scheduling the whole order per
    candidate; bit-identical to that from-scratch simulation because the
    loop below performs its exact float operations, in the same order.

    Usage::

        rp = PrefixReplayer(graph, num_gpus, send_blocking, gpu_speeds)
        rp.snapshot(order, assignment, varying=path_vertices)
        for gpu in range(num_gpus):
            ...mutate assignment of the varying operators...
            latency = rp.replay(assignment)

    **Snapshot-reuse invariant.**  A checkpoint taken at boundary ``k``
    is valid for any assignment that differs from the snapshot-time one
    only on ``varying``: processing ``order[i]`` reads the assignments
    of ``order[i]`` itself, of its predecessors, and — sender-blocking
    only — the successors of ``order[i]``; the boundary is the first
    position whose processing reads a varying operator (the varying
    operator's own position, or under sender blocking the position of
    any of its predecessors, whichever comes first).

    **Int lowering, no-restore replay.**  The simulation state lives in
    int-indexed flat lists — operator ids instead of names, a per-edge
    arrival slot instead of an ``(u, v)``-keyed dict — and a replay
    writes into the shared ``finish`` / ``arrival`` buffers without
    restoring them afterwards.  That is sound because every value a
    replay reads was written either by the same replay or by the
    prefix: the order is topological, so ``finish[u]`` is rewritten
    before any read; and an ``arrival`` slot ``(u, v)`` is read only
    when the current assignment splits ``u`` and ``v``, which is
    exactly the condition under which processing ``u`` (this replay if
    ``u`` is in the suffix) rewrote it.  A prefix operator cannot have
    a varying successor — the boundary sits at or before every
    predecessor of a varying operator under blocking — so prefix-written
    slots stay valid across candidates.  Stale values from earlier
    replays are therefore never observed, and for the same reason a
    snapshot never clears the buffers: a simulation from position 0
    reads only slots it wrote itself.

    **Carried prefix.**  Successive snapshots over a growing order — one
    per HIOS-LP path, or one per operator within a local-search round —
    share their prefix: the new path's vertices, or the next operator,
    enter the order at or after the new boundary.  A snapshot therefore
    resumes at the previous one's checkpoint when it is still a prefix
    of the new simulation (see :meth:`snapshot`), and simulates from
    position 0 otherwise — when the boundary moves back, the order
    changed before the old boundary, or an operator outside the old
    varying set was reassigned (an accepted local-search move).
    """

    def __init__(
        self,
        graph: OpGraph,
        num_gpus: int,
        send_blocking: bool = True,
        gpu_speeds: Sequence[float] | None = None,
        counters: EvalCounters | None = None,
    ) -> None:
        self._num_gpus = num_gpus
        self._blocking = send_blocking
        self._speeds: list[float] | None = (
            list(gpu_speeds) if gpu_speeds is not None else None
        )
        self.counters = counters if counters is not None else EvalCounters()
        names = graph.names
        self._names: list[str] = names
        index = {v: i for i, v in enumerate(names)}
        self._index: dict[str, int] = index
        n = len(names)
        self._n = n
        # successor CSR in the reference's deterministic send order
        # (sorted consumer names); the CSR position is the edge id that
        # addresses the flat per-edge arrival buffer
        sptr = [0]
        sdst: list[int] = []
        sw: list[float] = []
        edge_id: dict[tuple[str, str], int] = {}
        for v in names:
            for s in sorted(graph.successors(v)):
                edge_id[(v, s)] = len(sdst)
                sdst.append(index[s])
                sw.append(graph.transfer(v, s))
            sptr.append(len(sdst))
        self._sptr = sptr
        self._sdst = sdst
        self._sw = sw
        # predecessor CSR carrying each edge's transfer weight and its
        # arrival-slot id
        pptr = [0]
        psrc: list[int] = []
        pw: list[float] = []
        pedge: list[int] = []
        for v in names:
            for u in graph.predecessors(v):
                psrc.append(index[u])
                pw.append(graph.transfer(u, v))
                pedge.append(edge_id[(u, v)])
            pptr.append(len(psrc))
        self._pptr = pptr
        self._psrc = psrc
        self._pw = pw
        self._pedge = pedge
        self._cost: list[float] = [graph.cost(v) for v in names]
        self._num_edges = len(sdst)
        # checkpoint state (int-indexed)
        self._order_ids: list[int] = []
        self._k = 0
        self._assign: list[int] = [-1] * n
        self._varying: list[tuple[int, str]] = []
        self._finish: list[float] = [0.0] * n
        self._arrival: list[float] = [0.0] * self._num_edges
        self._gpu_free: list[float] = [0.0] * num_gpus
        self._latency = 0.0

    # ------------------------------------------------------------------
    def _simulate(
        self,
        assign: list[int],
        order: list[int],
        start: int,
        stop: int,
        finish: list[float],
        arrival: list[float],
        gpu_free: list[float],
        latency: float,
    ) -> float:
        """List-schedule ``order[start:stop]``, mutating the carried
        state in place.  Performs the from-scratch simulation's float
        operations in its order — only the indexing is lowered to ints."""
        blocking = self._blocking
        speeds = self._speeds
        pptr = self._pptr
        psrc = self._psrc
        pw = self._pw
        pedge = self._pedge
        sptr = self._sptr
        sdst = self._sdst
        sw = self._sw
        cost = self._cost
        for i in range(start, stop):
            v = order[i]
            g = assign[v]
            t = gpu_free[g]
            for pi in range(pptr[v], pptr[v + 1]):
                u = psrc[pi]
                gu = assign[u]
                if gu < 0:
                    continue  # still unscheduled in this iteration
                if gu == g:
                    ready = finish[u]
                elif blocking:
                    ready = arrival[pedge[pi]]
                else:
                    ready = finish[u] + pw[pi]
                if ready > t:
                    t = ready
            speed = 1.0 if speeds is None else speeds[g]
            end = t + cost[v] / speed
            finish[v] = end
            if blocking:
                cursor = end
                for si in range(sptr[v], sptr[v + 1]):
                    gs = assign[sdst[si]]
                    if gs < 0 or gs == g:
                        continue
                    cursor += sw[si]
                    arrival[si] = cursor
                gpu_free[g] = cursor
                if cursor > latency:
                    latency = cursor
            else:
                gpu_free[g] = end
            if end > latency:
                latency = end
        return latency

    def prefix_boundary(self, order: Sequence[str], varying: Iterable[str]) -> int:
        """First position of ``order`` whose processing reads the
        assignment of any operator in ``varying``."""
        positions = {v: i for i, v in enumerate(order)}
        names = self._names
        pptr = self._pptr
        psrc = self._psrc
        k = len(order)
        for v in varying:
            pos = positions.get(v)
            if pos is None:
                continue
            if pos < k:
                k = pos
            if self._blocking:
                # a predecessor issues (or skips) a blocking send to v
                # depending on v's assignment
                vi = self._index[v]
                for pi in range(pptr[vi], pptr[vi + 1]):
                    pu = positions.get(names[psrc[pi]])
                    if pu is not None and pu < k:
                        k = pu
        return k

    def snapshot(
        self,
        order: Sequence[str],
        assignment: Mapping[str, int],
        varying: Iterable[str],
    ) -> int:
        """Simulate the candidate-invariant prefix once and checkpoint
        the state; returns the boundary index.

        The simulation resumes at the previous snapshot's boundary
        ``k_old`` instead of position 0 when that checkpoint is still a
        prefix of this one: the new boundary is at least ``k_old``, the
        orders agree on their first ``k_old`` positions, and no operator
        outside the previous varying set changed its assignment.
        Positions before ``k_old`` read no previously varying assignment,
        so they simulate exactly as before, and replays wrote only
        suffix slots.
        """
        varying = list(varying)
        k = self.prefix_boundary(order, varying)
        index = self._index
        order_ids = [index[v] for v in order]
        assign = [-1] * self._n
        for v, g in assignment.items():
            assign[index[v]] = g
        k_old = self._k
        kept = self._assign
        for vi, _name in self._varying:
            kept[vi] = assign[vi]
        if k >= k_old and kept == assign and order_ids[:k_old] == self._order_ids[:k_old]:
            begin, gpu_free, latency = k_old, self._gpu_free, self._latency
        else:
            begin, gpu_free, latency = 0, [0.0] * self._num_gpus, 0.0
        self._order_ids = order_ids
        self._k = k
        self._assign = assign
        self._varying = [(index[v], v) for v in varying]
        self._gpu_free = gpu_free
        self.counters.evals += 1
        self._latency = self._simulate(
            assign, order_ids, begin, k, self._finish, self._arrival, gpu_free, latency,
        )
        return k

    def replay(self, assignment: Mapping[str, int]) -> float:
        """Latency of list-scheduling the full order under
        ``assignment``, re-simulating only the suffix after the last
        :meth:`snapshot`.

        Per the snapshot-reuse invariant, ``assignment`` may differ
        from the snapshot-time mapping only on the ``varying``
        operators — only their entries are re-read here.
        """
        self.counters.suffix_replays += 1
        assign = self._assign
        get = assignment.get
        for vi, name in self._varying:
            g = get(name)
            assign[vi] = -1 if g is None else g
        gpu_free = list(self._gpu_free)
        return self._simulate(
            assign, self._order_ids, self._k, len(self._order_ids),
            self._finish, self._arrival, gpu_free, self._latency,
        )


#: :meth:`StageGraphEvaluator.skip_reason` values
SKIP_OFF_PATH = "off-critical-path"
SKIP_DELAYS_PATH = "delays-critical-stage"


class _Merged(NamedTuple):
    """A window candidate's merged stage, computed before its cone; its
    sends' arrival times stay in the scratch list ``_marr`` until the
    next one."""

    key: tuple[int, int, int]  # (gpu, pos, p)
    group: tuple[str, ...]
    slots: list[int]  # the merged stage's sends, in send order
    duration: float
    start: float
    finish: float
    done: float


class _Priced(NamedTuple):
    """The last window candidate :meth:`StageGraphEvaluator.try_merge`
    priced: what :meth:`StageGraphEvaluator.commit` writes back."""

    merged: _Merged
    stamp: int  # marks the window and the cone in ``_mark``
    cone: list[int]  # in committed topological order
    latency: float


class StageGraphEvaluator:
    """Stage-graph evaluation for one Alg. 2 ``parallelize`` call.

    Builds the stage graph of ``schedule`` once as flat int-indexed
    lists — per stage its duration, GPU-chain predecessor, local data
    sources, remote arrival slots in and out, and deduplicated
    successors over every constraint kind — and keeps it for the whole
    window sweep:

    * :meth:`evaluate` runs the forward stage DP over every stage and
      records the *committed state*: each stage's start, finish and
      send-done time (the finish plus its blocking sends), the arrival
      time of every remote edge, and the DP's topological order.
    * :meth:`try_merge` prices a window candidate by re-running the DP
      over only the merged stage and its *cone* — the stages reachable
      from the window in the committed graph — reading committed values
      for every other stage.
    * :meth:`skip_reason` answers, without pricing the cone, whether an
      acyclic candidate cannot be strictly faster: it touches no stage
      of the committed critical path, or its merged stage delays the
      next stage of that path.
    * :meth:`commit` contracts an accepted window into one stage in
      place and writes the candidate's cone values into the committed
      state.

    Every start time is the max over the same incoming floats a
    from-scratch rebuild of the (merged) stage graph computes, by the
    same operations, and every send cursor accumulates in the same
    ``(producer, consumer)`` order, so the values are bit-identical to
    that rebuild.  A window's members must be pairwise independent
    (``parallelize`` checks that first): no data edge joins two members.
    """

    def __init__(
        self,
        profile: CostProfile,
        schedule: Schedule,
        counters: EvalCounters | None = None,
    ) -> None:
        self.counters = counters if counters is not None else EvalCounters()
        self._profile = profile
        self._blocking = profile.send_blocking
        graph: OpGraph = profile.graph
        stages = schedule.all_stages()
        n = len(stages)
        self._n = n

        op_stage: dict[str, int] = {}
        by_gpu: dict[int, list[int]] = {}
        for idx, st in enumerate(stages):
            for op in st.ops:
                op_stage[op] = idx
            by_gpu.setdefault(st.gpu, []).append(idx)
        self._by_gpu = by_gpu
        # per-GPU chain predecessor, -1 at the head of a chain
        prev = [-1] * n
        succ: list[set[int]] = [set() for _ in range(n)]
        for ids in by_gpu.values():
            for a, b in zip(ids, ids[1:]):
                prev[b] = a
                succ[a].add(b)
        lin: list[set[int]] = [set() for _ in range(n)]
        remote: list[tuple[str, str, float, int, int]] = []
        for u, v, w in graph.edges():
            su, sv = op_stage[u], op_stage[v]
            if su == sv:
                raise ScheduleError(
                    f"dependent operators {u!r} -> {v!r} share a stage"
                )
            succ[su].add(sv)
            if stages[su].gpu == stages[sv].gpu:
                lin[sv].add(su)
            else:
                remote.append((u, v, w, su, sv))
        # Remote edges are arrival slots numbered in ``(producer,
        # consumer)`` name order — the deterministic send order — so a
        # stage, merged or not, sends its slots in increasing order.
        remote.sort(key=lambda e: (e[0], e[1]))
        rout: list[list[int]] = [[] for _ in range(n)]
        rin: list[list[int]] = [[] for _ in range(n)]
        for e, (_u, _v, _w, su, sv) in enumerate(remote):
            rout[su].append(e)
            rin[sv].append(e)
        self._prev = prev
        self._succ: list[list[int]] = [list(s) for s in succ]
        self._lin: list[list[int]] = [list(s) for s in lin]
        self._rin = rin
        self._rout = rout
        self._rw: list[float] = [e[2] for e in remote]
        self._rsrc: list[int] = [e[3] for e in remote]
        self._dur: list[float] = [
            profile.stage_time(st.ops, gpu=st.gpu) for st in stages
        ]
        self._alive = [True] * n
        self._live = n

        # committed state, recorded by the full sweep
        self._latency: float | None = None
        self._start = [0.0] * n
        self._fin = [0.0] * n
        self._done = [0.0] * n
        self._arr = [0.0] * len(remote)
        self._topo: list[int] = []
        # derived from it before pricing (see ``_derive``)
        self._derived = False
        self._rank: list[int] = []
        self._top: list[float] = []
        self._desc: list[int] = []
        self._crit: list[bool] = []
        # candidate scratch: stamped marks, cone values, last priced
        self._stamp = 0
        self._mark: list[int] = []
        self._seen: list[int] = []
        self._nstart: list[float] = []
        self._nfin: list[float] = []
        self._ndone: list[float] = []
        self._narr: list[float] = []
        self._marr: list[float] = []
        self._merged: _Merged | None = None  # the latest ``_merge``
        self._priced: _Priced | None = None

    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Latency of the committed schedule (full DP over every stage).

        Raises :class:`ScheduleError` when the stage graph is cyclic.
        """
        self.counters.evals += 1
        return self._run_dp()

    def timings(self) -> tuple[float, list[float], list[float]]:
        """Latency plus per-stage start and finish times of the schedule
        the evaluator was built from, stages in ``schedule.all_stages()``
        order (call before any :meth:`commit`).

        Raises :class:`ScheduleError` when the stage graph is cyclic.
        """
        latency = self.evaluate()
        return latency, list(self._start), list(self._fin)

    def try_merge(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> float | None:
        """Latency of the candidate merging the ``p + 1`` consecutive
        stages at positions ``pos .. pos + p`` of ``gpu``'s stage list
        into one stage executing ``group``.

        Returns ``None`` when the merged stage graph is cyclic (the
        candidate Alg. 2 must reject).  The committed state is not
        modified.
        """
        key = (gpu, pos, p)
        members = self._window(gpu, pos, p)
        self.counters.window_delta_evals += 1
        merged = self._merged
        if merged is None or merged.key != key or merged.group != group:
            if self._cyclic(members):
                return None
            merged = self._merge(key, members, group)
        return self._price(merged, members).latency

    def skip_reason(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> str | None:
        """Why the :meth:`try_merge` candidate cannot be strictly faster
        than the committed schedule, or ``None`` when it must be priced
        (cyclic candidates included: :meth:`try_merge` rejects those).

        A skipped candidate is counted as a window evaluation and a
        skip, and its cone is not priced.  Both reasons rest on one
        argument: along the committed critical path every stage starts
        exactly at its predecessor's contribution, and float ``+`` and
        ``max`` are monotone, so once a stage of the path starts no
        earlier than before, every later stage does too and the last
        one still ends at or after the committed latency.

        * :data:`SKIP_OFF_PATH` — no member lies on the path.  The
          merge changes no stage, duration, edge or send order along
          it.  Every member counts: a window whose later members run
          one after another along the path can shorten it by running
          them concurrently.
        * :data:`SKIP_DELAYS_PATH` — some member does, and the merged
          stage (priced first, exactly as :meth:`try_merge` prices it)
          ends at or after the committed latency, or its contribution
          to a *next critical stage* — a stage of the path outside the
          window that a member feeds — is at least that stage's
          committed start.  Every later stage of the path lies in the
          cone, none is a member (the candidate is acyclic), and their
          durations, edges and send orders are unchanged.
        """
        members = self._window(gpu, pos, p)
        if self._cyclic(members):
            return None
        crit = self._crit
        if any(crit[m] for m in members):
            merged = self._merge((gpu, pos, p), members, group)
            if not self._delays_path(members, merged):
                return None  # try_merge prices the cone of ``merged`` next
            reason = SKIP_DELAYS_PATH
            self.counters.window_delay_skips += 1
        else:
            reason = SKIP_OFF_PATH
        self.counters.window_delta_evals += 1
        self.counters.window_skips += 1
        return reason

    def commit(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> float:
        """Make the :meth:`try_merge` candidate the committed schedule,
        in place, and return its latency.

        Contracts the window into its first member, writes the
        candidate's recomputed cone values into the committed state and
        reorders the committed topological order as: the stages outside
        the window and the cone in their old order, the merged stage,
        then the cone in its old order — valid because nothing outside
        the cone depends on the window.

        Raises :class:`ScheduleError` when the candidate is cyclic.
        """
        key = (gpu, pos, p)
        members = self._window(gpu, pos, p)
        priced = self._priced
        if priced is None or priced.merged.key != key:
            if self._cyclic(members):
                raise ScheduleError("merging the window makes the stage graph cyclic")
            priced = self._price(self._merge(key, members, group), members)
        merged = priced.merged
        rep, last = members[0], members[-1]
        window = set(members)
        start, fin, done, arr = self._start, self._fin, self._done, self._arr
        nstart, nfin, ndone, narr = self._nstart, self._nfin, self._ndone, self._narr
        prev, succ, lin, rin, rout = self._prev, self._succ, self._lin, self._rin, self._rout
        rsrc = self._rsrc
        cone = priced.cone

        start[rep] = merged.start
        fin[rep] = merged.finish
        done[rep] = merged.done
        for e in merged.slots:
            arr[e] = narr[e]
        for t in cone:
            start[t] = nstart[t]
            fin[t] = nfin[t]
            done[t] = ndone[t]
            for e in rout[t]:
                arr[e] = narr[e]

        # contract the window into ``rep``: redirect every edge into or
        # out of a member (the chain into ``rep`` already points at it),
        # then retire the other members
        targets: set[int] = set()
        local_sources: set[int] = set()
        slots_in: list[int] = []
        for m in members:
            targets.update(succ[m])
            local_sources.update(lin[m])
            slots_in += rin[m]
        targets -= window
        sources = local_sources | {rsrc[e] for e in slots_in}
        for t in targets:
            if prev[t] == last:
                prev[t] = rep
            if not window.isdisjoint(lin[t]):
                lin[t] = list({rep if u in window else u for u in lin[t]})
        for s in sources:
            succ[s] = list({rep if t in window else t for t in succ[s]})
        for e in merged.slots:
            rsrc[e] = rep
        self._dur[rep] = merged.duration
        succ[rep] = list(targets)
        lin[rep] = list(local_sources)
        rin[rep] = slots_in
        rout[rep] = merged.slots
        for m in members[1:]:
            self._alive[m] = False
            succ[m] = []
        self._live -= len(members) - 1
        self._by_gpu[gpu][pos : pos + p + 1] = [rep]

        mark, stamp = self._mark, priced.stamp
        self._topo = [s for s in self._topo if mark[s] != stamp] + [rep] + cone
        self._latency = priced.latency
        self._derived = False
        self._merged = None
        self._priced = None
        return priced.latency

    # ------------------------------------------------------------------
    def _run_dp(self) -> float:
        """Forward stage DP over every live stage: records the committed
        state and returns the latency.

        Each stage starts at the max over its incoming contributions —
        the chain predecessor's send-done time, local sources' finish
        times, remote slots' arrival times — pulled once its
        predecessors are done.  Raises :class:`ScheduleError` when the
        stage graph is cyclic.
        """
        self.counters.soa_evals += 1
        n = self._n
        blocking = self._blocking
        prev, succ, lin, rin, rout = self._prev, self._succ, self._lin, self._rin, self._rout
        rw = self._rw
        dur = self._dur
        start, fin, done, arr = self._start, self._fin, self._done, self._arr
        indeg = [0] * n
        for targets in succ:
            for t in targets:
                indeg[t] += 1
        alive = self._alive
        ready = [s for s in range(n) if indeg[s] == 0 and alive[s]]
        topo: list[int] = []
        latency = 0.0
        while ready:
            s = ready.pop()
            topo.append(s)
            st = 0.0
            c = prev[s]
            if c >= 0:
                v = done[c]
                if v > st:
                    st = v
            for u in lin[s]:
                v = fin[u]
                if v > st:
                    st = v
            for e in rin[s]:
                v = arr[e]
                if v > st:
                    st = v
            f = st + dur[s]
            start[s] = st
            fin[s] = f
            cur = f
            if blocking:
                for e in rout[s]:
                    cur += rw[e]
                    arr[e] = cur
            else:
                for e in rout[s]:
                    arr[e] = f + rw[e]
            done[s] = cur
            if f > latency:
                latency = f
            if cur > latency:
                latency = cur
            for t in succ[s]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        if len(topo) != self._live:
            raise ScheduleError("stage graph contains a cycle")
        self._topo = topo
        self._latency = latency
        self._derived = False
        self._merged = None
        self._priced = None
        return latency

    def _window(self, gpu: int, pos: int, p: int) -> list[int]:
        """Stage ids of the window, after making sure the committed state
        and what pricing derives from it (ranks, end times, critical
        path) are current."""
        if self._latency is None:
            self.evaluate()
        if not self._derived:
            self._derive()
        return self._by_gpu[gpu][pos : pos + p + 1]

    def _derive(self) -> None:
        n = self._n
        if not self._mark:
            self._mark = [0] * n
            self._seen = [0] * n
            self._nstart = [0.0] * n
            self._nfin = [0.0] * n
            self._ndone = [0.0] * n
            self._narr = [0.0] * len(self._arr)
            self._marr = [0.0] * len(self._arr)
        rank = [0] * n
        for i, s in enumerate(self._topo):
            rank[s] = i
        self._rank = rank
        top = [f if f > d else d for f, d in zip(self._fin, self._done)]
        self._top = top
        self._desc = sorted(self._topo, key=top.__getitem__, reverse=True)

        # Critical path: from a stage whose finish or send-done is the
        # latency, step to a predecessor whose contribution equals the
        # current stage's start exactly, until a stage starts at 0.
        crit = [False] * n
        self._crit = crit
        start, fin, done, arr = self._start, self._fin, self._done, self._arr
        prev, lin, rin, rsrc = self._prev, self._lin, self._rin, self._rsrc
        cur = self._desc[0] if self._desc else -1
        while cur >= 0:
            crit[cur] = True
            st = start[cur]
            if not st > 0.0:
                break
            c = prev[cur]
            if c < 0 or done[c] != st:
                c = next((u for u in lin[cur] if fin[u] == st), -1)
            if c < 0:
                c = next((rsrc[e] for e in rin[cur] if arr[e] == st), -1)
            if c < 0:
                raise RuntimeError(f"stage {cur} starts at no contribution")
            cur = c
        self._derived = True

    def _cyclic(self, members: list[int]) -> bool:
        """Whether contracting ``members`` closes a cycle: some member is
        reachable from another member's successor outside the window.
        Every stage on such a path ranks between the first and the last
        member in the committed topological order, so the search stops
        at the last member's rank."""
        self._stamp += 1
        visited = self._stamp
        member = -visited
        seen = self._seen
        succ = self._succ
        rank = self._rank
        limit = rank[members[-1]]
        for m in members:
            seen[m] = member
        stack: list[int] = []
        for m in members:
            for t in succ[m]:
                x = seen[t]
                if x != member and x != visited and rank[t] < limit:
                    seen[t] = visited
                    stack.append(t)
        while stack:
            for t in succ[stack.pop()]:
                x = seen[t]
                if x == member:
                    return True
                if x != visited and rank[t] < limit:
                    seen[t] = visited
                    stack.append(t)
        return False

    def _merge(
        self, key: tuple[int, int, int], members: list[int], group: tuple[str, ...]
    ) -> _Merged:
        """The merged stage of the acyclic candidate ``key`` (``(gpu,
        pos, p)``): it starts at the max over the members' incoming
        contributions from outside the window — none comes from the
        cone, or the merge would be cyclic — and sends the members'
        slots in name order.  The result stays in ``_merged``, and the
        sends' arrival times in ``_marr``, until the next merge or
        commit."""
        prev, lin, rin, rout = self._prev, self._lin, self._rin, self._rout
        rw = self._rw
        fin, done, arr = self._fin, self._done, self._arr
        marr = self._marr
        st = 0.0
        c = prev[members[0]]
        if c >= 0:
            v = done[c]
            if v > st:
                st = v
        slots: list[int] = []
        for m in members:
            for u in lin[m]:
                v = fin[u]
                if v > st:
                    st = v
            for e in rin[m]:
                v = arr[e]
                if v > st:
                    st = v
            slots += rout[m]
        slots.sort()
        duration = self._profile.stage_time(group, gpu=key[0])
        f = st + duration
        cur = f
        if self._blocking:
            for e in slots:
                cur += rw[e]
                marr[e] = cur
        else:
            for e in slots:
                marr[e] = f + rw[e]
        merged = _Merged(key, group, slots, duration, st, f, cur)
        self._merged = merged
        return merged

    def _delays_path(self, members: list[int], merged: _Merged) -> bool:
        """Whether the merged stage ends at or after the committed
        latency, or contributes to some next critical stage ``t`` no
        earlier than ``t``'s committed start: its send-done time if
        ``t`` is the window's chain successor, its finish if a member
        feeds ``t`` locally, each member slot's arrival into ``t``."""
        latency = self._latency
        assert latency is not None  # ``_window`` evaluated the committed schedule
        fin, cur = merged.finish, merged.done
        if fin >= latency or cur >= latency:
            return True
        crit, start = self._crit, self._start
        prev, succ, lin, rin, rsrc = self._prev, self._succ, self._lin, self._rin, self._rsrc
        marr = self._marr
        for m in members:
            for t in succ[m]:
                if not crit[t] or t in members:
                    continue
                st = start[t]
                if prev[t] == m:  # only the last member's chain successor is outside
                    if cur >= st:
                        return True
                elif m in lin[t]:
                    if fin >= st:
                        return True
                else:
                    for e in rin[t]:
                        if rsrc[e] == m and marr[e] >= st:
                            return True
        return False

    def _price(self, merged: _Merged, members: list[int]) -> _Priced:
        """Cone pricing of the candidate whose merged stage is
        ``merged`` (the latest :meth:`_merge`).  Its cone values stay in
        the scratch lists, and the result in ``_priced``, until the next
        pricing."""
        self.counters.soa_evals += 1
        self._stamp += 1
        stamp = self._stamp
        blocking = self._blocking
        mark = self._mark
        prev, succ, lin, rin, rout = self._prev, self._succ, self._lin, self._rin, self._rout
        rw, rsrc, dur = self._rw, self._rsrc, self._dur
        fin, done, arr = self._fin, self._done, self._arr
        nstart, nfin, ndone, narr = self._nstart, self._nfin, self._ndone, self._narr

        f, cur = merged.finish, merged.done
        for m in members:
            mark[m] = stamp
            nfin[m] = f
        ndone[members[-1]] = cur  # only the chain successor reads it
        marr = self._marr
        for e in merged.slots:
            narr[e] = marr[e]
        latency = 0.0
        if f > latency:
            latency = f
        if cur > latency:
            latency = cur

        # the cone: every stage reachable from the window
        cone: list[int] = []
        stack = list(members)
        while stack:
            for t in succ[stack.pop()]:
                if mark[t] != stamp:
                    mark[t] = stamp
                    cone.append(t)
                    stack.append(t)
        cone.sort(key=self._rank.__getitem__)
        for t in cone:
            st = 0.0
            c = prev[t]
            if c >= 0:
                v = ndone[c] if mark[c] == stamp else done[c]
                if v > st:
                    st = v
            for u in lin[t]:
                v = nfin[u] if mark[u] == stamp else fin[u]
                if v > st:
                    st = v
            for e in rin[t]:
                v = narr[e] if mark[rsrc[e]] == stamp else arr[e]
                if v > st:
                    st = v
            f = st + dur[t]
            nstart[t] = st
            nfin[t] = f
            cur = f
            if blocking:
                for e in rout[t]:
                    cur += rw[e]
                    narr[e] = cur
            else:
                for e in rout[t]:
                    narr[e] = f + rw[e]
            ndone[t] = cur
            if f > latency:
                latency = f
            if cur > latency:
                latency = cur

        # the largest committed end time outside the window and the cone
        top = self._top
        for s in self._desc:
            if mark[s] != stamp:
                if top[s] > latency:
                    latency = top[s]
                break

        priced = _Priced(merged, stamp, cone, latency)
        self._priced = priced
        return priced


def soa_latency(
    profile: CostProfile,
    schedule: Schedule,
    validate: bool = False,
    counters: EvalCounters | None = None,
) -> float:
    """One-shot latency of ``schedule`` via the stage DP.

    The schedulers' final evaluations route here.  Raises
    :class:`ScheduleError` on an infeasible schedule: dependent
    operators sharing a stage or a cyclic stage graph.
    """
    if validate:
        schedule.validate(profile.graph)
    return StageGraphEvaluator(profile, schedule, counters=counters).evaluate()
