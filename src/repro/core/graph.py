"""Computation graph: the DAG ``G = (V, E)`` of Section III-A.

Each vertex is an *operator* with a weight ``t(v)`` — the execution time
of the operator running alone on one GPU.  Each edge ``(u, v)`` carries a
weight ``t(u, v)`` — the time to transfer the tensor produced by ``u``
to another GPU when ``u`` and ``v`` are mapped to different devices.

The graph is the single input shared by every scheduler in
:mod:`repro.core`; it is deliberately framework-agnostic (no tensors, no
kernels) so that the same scheduling code serves both the analytic
simulations of Section V and the engine-backed experiments of
Section VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = ["GraphError", "Operator", "OpGraph"]


class GraphError(ValueError):
    """Raised for structurally invalid graphs (cycles, unknown vertices, ...)."""


@dataclass(frozen=True)
class Operator:
    """A single operator (vertex) of the computation graph.

    Parameters
    ----------
    name:
        Unique identifier within the graph.
    cost:
        ``t(v)`` — solo execution time in milliseconds.
    occupancy:
        Fraction of a GPU's compute resources the operator can use when
        running alone, in ``(0, 1]``.  Drives the concurrency cost model
        ``t(S)`` (see :mod:`repro.costmodel.concurrency`).  ``1.0`` means
        the operator saturates the device.
    output_bytes:
        Size of the operator's output tensor; used by link-based transfer
        models.  ``0`` means "unknown" (ratio-based models ignore it).
    kind:
        Free-form operator type tag ("conv", "pool", ...), for reporting.
    attrs:
        Arbitrary extra attributes (shapes, kernel params, ...).
    """

    name: str
    cost: float = 1.0
    occupancy: float = 1.0
    output_bytes: int = 0
    kind: str = "op"
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise GraphError(f"operator {self.name!r} has negative cost {self.cost}")
        if not (0.0 < self.occupancy <= 1.0):
            raise GraphError(
                f"operator {self.name!r} occupancy {self.occupancy} not in (0, 1]"
            )
        if self.output_bytes < 0:
            raise GraphError(
                f"operator {self.name!r} has negative output size {self.output_bytes}"
            )


class OpGraph:
    """Directed acyclic computation graph of operators.

    Vertices are addressed by operator name.  Edge weights default to
    ``0.0`` and are interpreted as the inter-GPU transfer time ``t(u,v)``
    in milliseconds.
    """

    def __init__(self) -> None:
        self._ops: dict[str, Operator] = {}
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        # bumped on every mutation; caches (the bitset transitive
        # closure below, CostProfile's stage-time memo) key on it
        self._version = 0
        self._closure: list[int] | None = None
        self._closure_index: dict[str, int] = {}
        self._closure_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operator(self, op: Operator | str, **kwargs: Any) -> Operator:
        """Add an operator.  Accepts an :class:`Operator` or a name plus
        keyword fields (``cost=``, ``occupancy=``, ...)."""
        if isinstance(op, str):
            op = Operator(op, **kwargs)
        elif kwargs:
            raise TypeError("keyword fields are only allowed with a string name")
        if op.name in self._ops:
            raise GraphError(f"duplicate operator {op.name!r}")
        self._ops[op.name] = op
        self._succ[op.name] = {}
        self._pred[op.name] = {}
        self._version += 1
        return op

    def add_edge(self, u: str, v: str, transfer: float = 0.0) -> None:
        """Add dependency edge ``u -> v`` with transfer time ``t(u, v)``."""
        for name in (u, v):
            if name not in self._ops:
                raise GraphError(f"unknown operator {name!r}")
        if u == v:
            raise GraphError(f"self-loop on {u!r}")
        if transfer < 0:
            raise GraphError(f"negative transfer time on edge ({u!r}, {v!r})")
        if v in self._succ[u]:
            raise GraphError(f"duplicate edge ({u!r}, {v!r})")
        self._succ[u][v] = transfer
        self._pred[v][u] = transfer
        self._version += 1

    def set_transfer(self, u: str, v: str, transfer: float) -> None:
        """Overwrite the transfer weight of an existing edge."""
        if v not in self._succ.get(u, {}):
            raise GraphError(f"no edge ({u!r}, {v!r})")
        if transfer < 0:
            raise GraphError(f"negative transfer time on edge ({u!r}, {v!r})")
        self._succ[u][v] = transfer
        self._pred[v][u] = transfer
        self._version += 1

    def replace_operator(self, op: Operator) -> None:
        """Replace the payload of an existing vertex, keeping its edges."""
        if op.name not in self._ops:
            raise GraphError(f"unknown operator {op.name!r}")
        self._ops[op.name] = op
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ops)

    def operator(self, name: str) -> Operator:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"unknown operator {name!r}") from None

    def operators(self) -> list[Operator]:
        return list(self._ops.values())

    @property
    def names(self) -> list[str]:
        return list(self._ops)

    def cost(self, name: str) -> float:
        """Vertex weight ``t(v)``."""
        return self.operator(name).cost

    def transfer(self, u: str, v: str) -> float:
        """Edge weight ``t(u, v)``; raises if the edge does not exist."""
        try:
            return self._succ[u][v]
        except KeyError:
            raise GraphError(f"no edge ({u!r}, {v!r})") from None

    def successors(self, name: str) -> list[str]:
        if name not in self._ops:
            raise GraphError(f"unknown operator {name!r}")
        return list(self._succ[name])

    def predecessors(self, name: str) -> list[str]:
        if name not in self._ops:
            raise GraphError(f"unknown operator {name!r}")
        return list(self._pred[name])

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or payload
        change.  Caches derived from the graph (the transitive closure,
        :meth:`~repro.costmodel.profile.CostProfile.stage_time` memos)
        key on it to stay coherent."""
        return self._version

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def edges(self) -> list[tuple[str, str, float]]:
        return [
            (u, v, w) for u, nbrs in self._succ.items() for v, w in nbrs.items()
        ]

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._succ.get(u, {})

    def sources(self) -> list[str]:
        """Operators without predecessors (model inputs)."""
        return [v for v in self._ops if not self._pred[v]]

    def sinks(self) -> list[str]:
        """Operators without successors (model outputs)."""
        return [v for v in self._ops if not self._succ[v]]

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn topological order; raises :class:`GraphError` on cycles."""
        indeg = {v: len(self._pred[v]) for v in self._ops}
        ready = [v for v, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for s in self._succ[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._ops):
            raise GraphError("computation graph contains a cycle")
        return order

    def validate(self) -> None:
        """Raise :class:`GraphError` on any error-severity lint finding.

        A thin wrapper over the ``repro.lint`` graph rules: acyclicity
        (G001) plus finite weights (G007).  Use
        :func:`repro.lint.lint_graph` directly to also collect the
        warning/info findings instead of failing on the first error.
        """
        from ..lint.api import lint_graph  # runtime import: lint imports us

        lint_graph(self, errors_only=True).raise_errors(GraphError)

    def is_dag(self) -> bool:
        try:
            self.topological_order()
        except GraphError:
            return False
        return True

    def ancestors(self, name: str) -> set[str]:
        """All transitive predecessors of ``name`` (excluding itself)."""
        seen: set[str] = set()
        stack = list(self._pred[name])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._pred[u])
        return seen

    def descendants(self, name: str) -> set[str]:
        """All transitive successors of ``name`` (excluding itself)."""
        seen: set[str] = set()
        stack = list(self._succ[name])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._succ[u])
        return seen

    def descendant_masks(self) -> tuple[list[int], dict[str, int]]:
        """Bitset transitive closure: ``(masks, index)`` where
        ``masks[index[v]]`` has bit ``index[w]`` set iff ``w`` is a
        strict descendant of ``v``.

        Computed once per graph mutation (lazily, in one reverse
        topological sweep of word-parallel OR operations) and cached, so
        :meth:`reachable` / :meth:`independent` answer in O(1)-ish word
        operations instead of BFS-ing the graph per query — the Alg. 2
        window sweep and the lint rules issue these queries per window.
        """
        if self._closure is not None and self._closure_version == self._version:
            return self._closure, self._closure_index
        index = {v: i for i, v in enumerate(self._ops)}
        masks = [0] * len(index)
        for v in reversed(self.topological_order()):
            m = 0
            for s in self._succ[v]:
                i = index[s]
                m |= masks[i] | (1 << i)
            masks[index[v]] = m
        self._closure = masks
        self._closure_index = index
        self._closure_version = self._version
        return masks, index

    def _reachable_bfs(self, u: str, v: str) -> bool:
        """Reference BFS reachability (cycle-tolerant; used as fallback
        on non-DAG graphs and by the differential tests)."""
        if u == v:
            return True
        stack = [u]
        seen = {u}
        while stack:
            x = stack.pop()
            for s in self._succ[x]:
                if s == v:
                    return True
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    def _independent_bfs(self, names: Iterable[str]) -> bool:
        """Reference BFS pairwise-independence check (cycle-tolerant)."""
        group = list(names)
        group_set = set(group)
        if len(group_set) != len(group):
            return False
        for start in group:
            stack = list(self._succ[start])
            seen: set[str] = set()
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                if x in group_set:
                    return False
                stack.extend(self._succ[x])
        return True

    def reachable(self, u: str, v: str) -> bool:
        """Is there a directed path from ``u`` to ``v``?"""
        if u == v:
            return True
        try:
            masks, index = self.descendant_masks()
        except GraphError:  # cyclic graph (pre-validation): BFS still works
            return self._reachable_bfs(u, v)
        iv = index.get(v)
        if iv is None:
            return False
        return bool((masks[index[u]] >> iv) & 1)

    def independent(self, names: Iterable[str]) -> bool:
        """True if no pair of ``names`` is connected by a directed path.

        This is the Alg. 2 precondition for grouping a window of
        operators into one stage.
        """
        group = list(names)
        group_set = set(group)
        if len(group_set) != len(group):
            return False
        try:
            masks, index = self.descendant_masks()
        except GraphError:  # cyclic graph (pre-validation): BFS still works
            return self._independent_bfs(group)
        group_mask = 0
        for v in group:
            group_mask |= 1 << index[v]
        for v in group:
            if masks[index[v]] & group_mask:
                return False
        return True

    def subgraph(self, names: Iterable[str]) -> "OpGraph":
        """Induced subgraph on ``names`` (edges with both endpoints kept)."""
        keep = set(names)
        sub = OpGraph()
        for n in self._ops:
            if n in keep:
                sub.add_operator(self._ops[n])
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def copy(self) -> "OpGraph":
        return self.subgraph(self._ops)

    def total_cost(self) -> float:
        """Sum of all vertex weights — the sequential single-GPU latency
        lower bound used by the Sequential baseline."""
        return sum(op.cost for op in self._ops.values())

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpGraph(|V|={len(self)}, |E|={self.num_edges})"

    @classmethod
    def from_edges(
        cls,
        costs: Mapping[str, float],
        edges: Sequence[tuple[str, str, float]] | Sequence[tuple[str, str]],
        occupancy: Mapping[str, float] | float = 1.0,
    ) -> "OpGraph":
        """Compact constructor used heavily by tests and worked examples."""
        g = cls()
        for name, cost in costs.items():
            occ = occupancy if isinstance(occupancy, float) else occupancy.get(name, 1.0)
            g.add_operator(Operator(name, cost=cost, occupancy=occ))
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                g.add_edge(u, v, 0.0)
            else:
                u, v, w = e  # type: ignore[misc]
                g.add_edge(u, v, w)
        return g
