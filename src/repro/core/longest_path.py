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
vertex set (two passes), well below the ``O(|V|^2 |E|)`` bound quoted in
the paper's complexity analysis.  Alg. 1 calls it once per mapping
iteration, and only the unscheduled set changes between calls, so
:class:`LongestPathEngine` hoists everything else — the int vertex
index, the topological order, the name-sorted successor CSR and the
flat edge arrays — into a per-graph object and answers each query with:

* numpy kernels for the set-dependent parts: the *free* set and the
  ``start_bonus`` / ``end_bonus`` anchor maxima come from boolean masks
  and ``np.maximum.at`` scatters over the flat ``(src, dst, w)`` edge
  arrays — no per-vertex neighbour walks;
* scalar tail/head DP passes over int-indexed lists (the data
  dependency ``tail[v] <- tail[succ]`` makes them inherently
  sequential), with the successor scan restricted by a boolean
  membership list instead of set hashing.

:func:`longest_valid_path` is a one-shot engine.  The differential
tests in ``tests/core/test_fastpath.py`` hold the engine to
bit-identity — the same path, the same float length — with the
from-scratch dict DP in ``tests/oracles``: maxima are selections
(``np.maximum.at`` picks the same float a ``max`` picks), and the DP
performs the identical sequence of additions and strict comparisons,
including the lexicographic tie-break on the start vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator

import numpy as np

from .graph import GraphError, OpGraph

__all__ = ["LongestPathEngine", "ValidPath", "longest_valid_path"]

_NEG_INF = float("-inf")


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


def longest_valid_path(
    graph: OpGraph, unscheduled: AbstractSet[str]
) -> ValidPath:
    """Find the longest valid path within ``unscheduled``.

    Parameters
    ----------
    graph:
        The full computation graph ``G``.
    unscheduled:
        Names of the vertices still in ``G'``.  Must be non-empty and a
        subset of ``graph``.

    Returns
    -------
    ValidPath
        Ties are broken deterministically (lexicographically smallest
        successor chain).
    """
    return LongestPathEngine(graph).longest_valid_path(unscheduled)


class LongestPathEngine:
    """Per-graph engine for :func:`longest_valid_path` queries.

    Construction runs the topological sort once and lowers the graph to
    int CSR arrays; :meth:`longest_valid_path` then answers each query
    in ``O(|V| + |E|)`` with no string hashing in the inner loops.  The
    engine revalidates against :attr:`OpGraph.version` and rebuilds
    after a mutation, so holding one across scheduler iterations is
    safe.
    """

    def __init__(self, graph: OpGraph) -> None:
        self._graph = graph
        self._build()

    def _build(self) -> None:
        graph = self._graph
        self._version = graph.version
        names = graph.names
        self._names: list[str] = names
        self._index: dict[str, int] = {v: i for i, v in enumerate(names)}
        n = len(names)
        self._n = n
        # raises GraphError on cycles
        self._topo: list[int] = [self._index[v] for v in graph.topological_order()]
        self._cost: list[float] = [graph.cost(v) for v in names]
        # successor CSR in name-sorted order: the tie-break of equal
        # candidates is the positional first, i.e. the smallest name
        sptr = [0]
        sdst: list[int] = []
        sw: list[float] = []
        for v in names:
            for s in sorted(graph.successors(v)):
                sdst.append(self._index[s])
                sw.append(graph.transfer(v, s))
            sptr.append(len(sdst))
        self._sptr = sptr
        self._sdst = sdst
        self._sw = sw
        # flat edge arrays for the numpy bonus/free kernels
        edges = graph.edges()
        self._esrc = np.asarray(
            [self._index[u] for u, _v, _w in edges], dtype=np.int64
        )
        self._edst = np.asarray(
            [self._index[v] for _u, v, _w in edges], dtype=np.int64
        )
        self._ew = np.asarray([w for _u, _v, w in edges], dtype=np.float64)

    def longest_valid_path(self, unscheduled: AbstractSet[str]) -> ValidPath:
        """Longest valid path within ``unscheduled``; the contract of
        :func:`longest_valid_path`."""
        if self._version != self._graph.version:
            self._build()
        if not unscheduled:
            raise GraphError("no unscheduled vertices left")
        n = self._n
        index = self._index
        unsched = np.zeros(n, dtype=bool)
        for v in unscheduled:
            i = index.get(v)
            if i is None:
                raise GraphError(f"unscheduled vertex {v!r} not in graph")
            unsched[i] = True

        # Anchor bonuses and the free set, from the flat edge arrays:
        # an edge contributes to start_bonus[dst] when its source is
        # scheduled and its target is not, and symmetrically for
        # end_bonus[src]; the same masks mark un-free vertices.
        u_src = unsched[self._esrc]
        u_dst = unsched[self._edst]
        m_in = u_dst & ~u_src  # scheduled -> unscheduled
        m_out = u_src & ~u_dst  # unscheduled -> scheduled
        start_bonus = np.zeros(n, dtype=np.float64)
        np.maximum.at(start_bonus, self._edst[m_in], self._ew[m_in])
        end_bonus = np.zeros(n, dtype=np.float64)
        np.maximum.at(end_bonus, self._esrc[m_out], self._ew[m_out])
        anchored = np.zeros(n, dtype=bool)
        anchored[self._edst[m_in]] = True
        anchored[self._esrc[m_out]] = True
        free = unsched & ~anchored

        unsched_l = unsched.tolist()
        free_l = free.tolist()
        sb = start_bonus.tolist()
        eb = end_bonus.tolist()
        cost = self._cost
        sptr = self._sptr
        sdst = self._sdst
        sw = self._sw
        order = [i for i in self._topo if unsched_l[i]]

        # tail pass: best continuation past v (v must be free to continue)
        tail = [0.0] * n
        tail_next = [-1] * n
        for v in reversed(order):
            best = eb[v]
            best_next = -1
            if free_l[v]:
                for ei in range(sptr[v], sptr[v + 1]):
                    s = sdst[ei]
                    if not unsched_l[s]:
                        continue
                    cand = sw[ei] + tail[s]
                    if cand > best:
                        best = cand
                        best_next = s
            tail[v] = cost[v] + best
            tail_next[v] = best_next

        # head pass: v as the (free-exempt) first vertex
        names = self._names
        best_start = -1
        best_len = _NEG_INF
        head_next = [-1] * n
        for v in order:
            best = eb[v]
            nxt = -1
            for ei in range(sptr[v], sptr[v + 1]):
                s = sdst[ei]
                if not unsched_l[s]:
                    continue
                cand = sw[ei] + tail[s]
                if cand > best:
                    best = cand
                    nxt = s
            head_next[v] = nxt
            total = sb[v] + cost[v] + best
            if total > best_len or (
                total == best_len and best_start >= 0 and names[v] < names[best_start]
            ):
                best_len = total
                best_start = v

        assert best_start >= 0
        path = [names[best_start]]
        cursor = head_next[best_start]
        while cursor >= 0:
            path.append(names[cursor])
            cursor = tail_next[cursor]
        return ValidPath(vertices=tuple(path), length=best_len)
