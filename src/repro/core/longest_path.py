"""Longest *valid* path extraction (Alg. 1, line 5).

Each HIOS-LP iteration pulls from the unscheduled subgraph ``G'`` the
longest path ``P`` whose *intermediate* vertices (all vertices of
``P ∩ G'`` except the first and the last) have no edges from/to any
already-scheduled vertex.  The first and last unscheduled vertices on
the path are exempt, and the path's length additionally counts one
optional *anchor* edge on each side — an edge arriving at the first
vertex from a scheduled vertex and an edge leaving the last vertex to a
scheduled vertex — exactly as in the paper's Fig. 4 walk-through where
``P2 = {e2, v3, e4, v5, e6}`` includes the boundary edges ``e2`` and
``e6`` but excludes the longer candidate through ``v5 -> v6`` because
its intermediate vertex ``v5`` touches the scheduled ``v6``.

Path length counts vertex weights (operator times) *and* edge weights
(worst-case inter-GPU transfer times): the path is selected before its
GPU is chosen, so adjacent operators are pessimistically assumed to be
split across GPUs.

The DP runs in linear time over the DAG induced on the unscheduled
vertex set (one pass in reverse topological order), well below the
``O(|V|^2 |E|)`` bound quoted in the paper's complexity analysis.  Per
unscheduled vertex ``v`` it keeps the anchor bonuses and the *free*
flag (no edge to or from a scheduled vertex), ``tail[v]`` — the best
path continuing from ``v`` when ``v`` is not its first vertex, which
may continue only if ``v`` is free — and the *head total* of ``v`` as
the first vertex.  The answer is the largest head total, the smallest
start name on ties.

Alg. 1 calls it once per mapping iteration, and between two calls the
unscheduled set only loses the extracted path, so
:class:`LongestPathEngine` keeps that state between queries and updates
it instead of rerunning the pass.  Removing vertices ``R`` changes
the anchors only of their unscheduled neighbours, so ``tail`` changes
only on those neighbours and on free ancestors of a ``tail`` whose
value changed — the *cone* — and a head total only on those neighbours
and on predecessors of a changed ``tail``; the update recomputes
exactly those vertices, in reverse topological order.  The best start
sits in a heap keyed ``(-total, name)`` with lazy deletion.  Any other
query (an arbitrary set, one that grew, a graph whose
:attr:`~repro.core.graph.OpGraph.version` moved) reruns the full DP.
Every vertex the update skips has exactly the inputs it had, and every
recomputed vertex performs the full DP's additions and strict
comparisons over the same name-sorted successors, so the path and its
float length are bit-identical to a full run.

The differential tests in ``tests/core/test_fastpath.py`` hold the
engine to bit-identity — the same path, the same float length — with
the from-scratch dict DP in ``tests/oracles``, over query sequences
that mix both kinds of query.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import AbstractSet, Iterator

from .fasteval import EvalCounters
from .graph import GraphError, OpGraph

__all__ = ["LongestPathEngine", "ValidPath"]

_NAN = float("nan")


@dataclass(frozen=True)
class ValidPath:
    """A valid path: its unscheduled vertices in order and its length
    (vertex weights + internal edge weights + anchor edge weights)."""

    vertices: tuple[str, ...]
    length: float

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vertices)


class LongestPathEngine:
    """Per-graph engine for longest-valid-path queries.

    Construction runs the topological sort once and lowers the graph to
    int CSR arrays.  A query whose unscheduled set is the previous
    query's minus some vertices updates the carried DP state over what
    those vertices disturb; any other query runs the full DP in
    ``O(|V| + |E|)``.  Either way no string hashing happens in the inner
    loops, and ``counters.lvp_visits`` counts the vertices the DP
    computed.  The engine revalidates against :attr:`OpGraph.version`
    and rebuilds after a mutation, so holding one across scheduler
    iterations is safe.
    """

    def __init__(self, graph: OpGraph, counters: EvalCounters | None = None) -> None:
        self._graph = graph
        self.counters = counters if counters is not None else EvalCounters()
        self._build()

    def _build(self) -> None:
        graph = self._graph
        self._version = graph.version
        names = graph.names
        self._names: list[str] = names
        index = {v: i for i, v in enumerate(names)}
        self._index: dict[str, int] = index
        n = len(names)
        self._n = n
        # raises GraphError on cycles
        self._topo: list[int] = [index[v] for v in graph.topological_order()]
        rank = [0] * n
        for r, v in enumerate(self._topo):
            rank[v] = r
        self._rank = rank
        self._cost: list[float] = [graph.cost(v) for v in names]
        # successor CSR in name-sorted order: the tie-break of equal
        # candidates is the positional first, i.e. the smallest name
        sptr = [0]
        sdst: list[int] = []
        sw: list[float] = []
        for v in names:
            for s in sorted(graph.successors(v)):
                sdst.append(index[s])
                sw.append(graph.transfer(v, s))
            sptr.append(len(sdst))
        self._sptr = sptr
        self._sdst = sdst
        self._sw = sw
        # predecessor CSR, for the start anchors and the cone walk
        pptr = [0]
        psrc: list[int] = []
        pw: list[float] = []
        for v in names:
            for u in graph.predecessors(v):
                psrc.append(index[u])
                pw.append(graph.transfer(u, v))
            pptr.append(len(psrc))
        self._pptr = pptr
        self._psrc = psrc
        self._pw = pw
        # the unscheduled set the carried state describes (None: no state)
        self._carried: set[str] | None = None

    def longest_valid_path(self, unscheduled: AbstractSet[str]) -> ValidPath:
        """Find the longest valid path within ``unscheduled``.

        ``unscheduled`` holds the names of the vertices still in ``G'``;
        it must be non-empty and a subset of the graph, or
        :class:`~repro.core.graph.GraphError` is raised.  Ties are
        broken deterministically (lexicographically smallest successor
        chain).
        """
        if self._version != self._graph.version:
            self._build()
        if not unscheduled:
            raise GraphError("no unscheduled vertices left")
        carried = self._carried
        removed = carried.difference(unscheduled) if carried is not None else set()
        if carried is None or len(carried) - len(removed) != len(unscheduled):
            self._full(unscheduled)  # not a subset of the carried set
        elif removed:
            carried -= removed
            self._remove(removed)
        return self._best()

    # ------------------------------------------------------------------
    def _full(self, unscheduled: AbstractSet[str]) -> None:
        """The DP over the whole unscheduled set, in one pass in reverse
        topological order."""
        self._carried = None  # until the state below is complete
        n = self._n
        index = self._index
        unsched = [False] * n
        for v in unscheduled:
            i = index.get(v)
            if i is None:
                raise GraphError(f"unscheduled vertex {v!r} not in graph")
            unsched[i] = True
        self._in = unsched
        self._free = [False] * n
        self._sb = [0.0] * n
        self._eb = [0.0] * n
        self._tail = [0.0] * n
        self._tail_next = [-1] * n
        self._total = [_NAN] * n
        self._head_next = [-1] * n
        self._heap: list[tuple[float, str, int]] = []
        order = [i for i in self._topo if unsched[i]]
        for v in reversed(order):
            self._anchor(v)
            self._update(v)
        self.counters.lvp_visits += len(order)
        self._carried = set(unscheduled)

    def _remove(self, removed: set[str]) -> None:
        """Update the carried state after ``removed`` left the
        unscheduled set: re-anchor their unscheduled neighbours, then
        recompute those neighbours and every unscheduled predecessor of
        a changed ``tail``, in reverse topological order."""
        index, unsched = self._index, self._in
        pptr, psrc, sptr, sdst = self._pptr, self._psrc, self._sptr, self._sdst
        ids = [index[v] for v in removed]
        for r in ids:
            unsched[r] = False
        queued: set[int] = set()  # the re-anchored neighbours, then the cone
        for r in ids:
            for pi in range(pptr[r], pptr[r + 1]):
                if unsched[psrc[pi]]:
                    queued.add(psrc[pi])
            for si in range(sptr[r], sptr[r + 1]):
                if unsched[sdst[si]]:
                    queued.add(sdst[si])
        for v in queued:
            self._anchor(v)

        # pop the highest topological rank first: every successor of a
        # vertex is final before the vertex itself is recomputed
        rank, topo = self._rank, self._topo
        pending = [-rank[v] for v in queued]
        heapify(pending)
        while pending:
            v = topo[-heappop(pending)]
            if self._update(v):
                for pi in range(pptr[v], pptr[v + 1]):
                    u = psrc[pi]
                    if unsched[u] and u not in queued:
                        queued.add(u)
                        heappush(pending, -rank[u])
        self.counters.lvp_visits += len(queued)

    def _anchor(self, v: int) -> None:
        """Anchor bonuses and free flag of the unscheduled vertex ``v``:
        its heaviest edge from, and to, a scheduled vertex."""
        unsched = self._in
        pw, sw = self._pw, self._sw
        free = True
        start = 0.0
        for pi in range(self._pptr[v], self._pptr[v + 1]):
            if not unsched[self._psrc[pi]]:
                free = False
                if pw[pi] > start:
                    start = pw[pi]
        end = 0.0
        for si in range(self._sptr[v], self._sptr[v + 1]):
            if not unsched[self._sdst[si]]:
                free = False
                if sw[si] > end:
                    end = sw[si]
        self._free[v] = free
        self._sb[v] = start
        self._eb[v] = end

    def _update(self, v: int) -> bool:
        """Recompute ``tail[v]`` and the head total of ``v`` from its
        successors' tails; returns whether ``tail[v]``'s value changed.

        Both continue with the best of the end anchor and, over the
        unscheduled successors in name order, edge plus ``tail`` (strict
        ``>``: the smallest name wins a tie).  ``tail`` continues past
        ``v`` only when ``v`` is free; the head total — ``v`` as the
        free-exempt first vertex — adds the start anchor, and goes onto
        the heap when it changed.
        """
        unsched, tail = self._in, self._tail
        sdst, sw = self._sdst, self._sw
        best = self._eb[v]
        nxt = -1
        for ei in range(self._sptr[v], self._sptr[v + 1]):
            s = sdst[ei]
            if not unsched[s]:
                continue
            cand = sw[ei] + tail[s]
            if cand > best:
                best = cand
                nxt = s
        cost = self._cost[v]
        self._head_next[v] = nxt
        total = self._sb[v] + cost + best
        old = self._total[v]
        self._total[v] = total
        # a NaN total never wins the comparisons; kept out, it cannot
        # disorder the heap
        if total != old and total == total:
            heappush(self._heap, (-total, self._names[v], v))
        if self._free[v]:
            value = cost + best
            self._tail_next[v] = nxt
        else:
            value = cost + self._eb[v]
            self._tail_next[v] = -1
        changed = value != tail[v]
        tail[v] = value
        return changed

    def _best(self) -> ValidPath:
        """The largest head total (smallest name on ties), dropping
        heap entries of scheduled vertices and of superseded totals."""
        heap, unsched, total = self._heap, self._in, self._total
        while True:
            neg, _name, v = heap[0]
            if unsched[v] and neg == -total[v]:
                break
            heappop(heap)
        names, tail_next = self._names, self._tail_next
        path = [names[v]]
        cursor = self._head_next[v]
        while cursor >= 0:
            path.append(names[cursor])
            cursor = tail_next[cursor]
        return ValidPath(vertices=tuple(path), length=total[v])
