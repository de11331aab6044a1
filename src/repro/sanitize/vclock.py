"""Vector clocks over the HB graph + the trace linearization checker.

:class:`HbClocks` assigns every event of an (acyclic) :class:`HbGraph`
a vector clock.  The clock "threads" are the natural total orders of
the model — one per operator (``launch < start < finish``) and one per
message (``send < recv``) — so the classic equivalence holds:
``a`` happens-before ``b`` iff ``clock(a) <= clock(b)`` componentwise
(and ``a != b``).  Internally the clocks are represented as ancestor
bitsets (one big int per event, the idiom of
``OpGraph.descendant_masks``), which makes ``precedes`` O(1) and the
whole construction O(V·E/64); :meth:`HbClocks.clock_of` materializes
the per-thread counter dict on demand.

The checkers then verify a claimed execution is a *linearization* of
the HB graph — i.e. its timestamps could have been produced by some
sequential interleaving that respects every HB edge:

* :func:`dependency_violations` / :func:`transfer_violations` — the
  *requirement* layer (the set ``R``): producers finish before
  consumers start, plus transfer slack across GPUs.  These two are the
  single implementation behind the ``T004`` / ``T005`` lint rules.
* :func:`check_engine_trace` — requirements plus, for complete traces,
  every *enforced* edge (the set ``E``) of the compiled HB graph: an
  event the trace holds must follow each of its enforced predecessors,
  which must be in the trace too.  Partial failure traces read from
  disk skip the structural layer (the run was cut mid-flight) and
  exempt host-checkpointed producers from transfer slack, exactly like
  the trace rules; spliced repair traces should be checked with
  ``structural=False`` because their tail re-ran under a *different*
  (repaired) schedule.  The engine's ``HIOS_SANITIZE=1`` check runs it
  on every trace it writes, structural layer on
  (:mod:`repro.sanitize.runtime`).
* :func:`check_timeline` — serve timelines: span lifecycle order plus
  exclusive-GPU-lease serialization, through the same edge loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from .hbgraph import (
    EDGE_KINDS,
    ExecModel,
    HbEvent,
    HbGraph,
    build_hb_graph,
    ev_finish,
    ev_launch,
    ev_recv,
    ev_send,
    ev_start,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..substrate.engine import ExecutionTrace

__all__ = [
    "CyclicHbGraphError",
    "HbClocks",
    "HbViolation",
    "dependency_violations",
    "transfer_violations",
    "check_engine_trace",
    "check_timeline",
    "event_times",
    "timeline_hb_graph",
    "thread_of",
]


class CyclicHbGraphError(ValueError):
    """Vector clocks only exist for acyclic HB graphs; run
    :func:`repro.sanitize.detectors.find_deadlock` first."""


def thread_of(event: HbEvent) -> str:
    """The vector-clock thread an event belongs to."""
    if event.kind in ("send", "recv"):
        return f"msg:{event.op}->{event.other}"
    return f"op:{event.op}"


_POSITION = {"launch": 1, "start": 2, "finish": 3, "send": 1, "recv": 2}


class HbClocks:
    """Vector clocks (as ancestor bitsets) for one acyclic HB graph."""

    def __init__(self, hb: HbGraph) -> None:
        order = hb.topological_order()
        if order is None:
            raise CyclicHbGraphError(
                "HB graph is cyclic (deadlock); vector clocks are undefined"
            )
        self.hb = hb
        masks: list[int] = [0] * hb.num_events
        for i in order:
            m = 1 << i
            for a, _kind in hb.in_edges(i):
                m |= masks[a]
            masks[i] = m
        self._masks = masks

    # ------------------------------------------------------------------
    def precedes(self, a: int, b: int) -> bool:
        """Strict happens-before between event indices."""
        return a != b and (self._masks[b] >> a) & 1 == 1

    def precedes_events(self, a: HbEvent, b: HbEvent) -> bool:
        ia, ib = self.hb.index.get(a), self.hb.index.get(b)
        if ia is None or ib is None:
            return False
        return self.precedes(ia, ib)

    def concurrent(self, a: int, b: int) -> bool:
        return a != b and not self.precedes(a, b) and not self.precedes(b, a)

    def clock_of(self, idx: int) -> dict[str, int]:
        """The materialized vector clock: thread -> last position seen
        at-or-before this event (its own thread included)."""
        clock: dict[str, int] = {}
        mask = self._masks[idx]
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            ev = self.hb.events[i]
            thread = thread_of(ev)
            pos = _POSITION[ev.kind]
            if pos > clock.get(thread, 0):
                clock[thread] = pos
        return clock


# ----------------------------------------------------------------------
# violations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HbViolation:
    """One broken ordering in a claimed execution.

    ``kind`` is either a requirement kind (``dep`` / ``transfer``) or
    the :data:`~repro.sanitize.hbgraph.EDGE_KINDS` kind of the enforced
    edge that the timestamps contradict.  ``t_src`` is ``None`` when
    the predecessor event never happened at all (e.g. a producer with
    no recorded finish).
    """

    kind: str
    src: HbEvent
    dst: HbEvent
    t_dst: float
    t_src: float | None = None
    u: str = ""
    v: str = ""
    transfer: float = 0.0

    def describe(self) -> str:
        why = EDGE_KINDS.get(self.kind, self.kind)
        head = (
            f"{self.dst.describe()} at {self.t_dst} violates "
            f"{why}: predecessor {self.src.describe()}"
        )
        if self.t_src is None:
            return head + " never happened"
        if self.kind == "transfer":
            return (
                head
                + f" at {self.t_src} + transfer {self.transfer} "
                f"= {self.t_src + self.transfer}"
            )
        return head + f" at {self.t_src}"


# ----------------------------------------------------------------------
# requirement layer (the single implementation behind T004 / T005)
# ----------------------------------------------------------------------
def dependency_violations(
    graph: OpGraph, trace: "ExecutionTrace", *, eps: float = 1e-6
) -> Iterator[HbViolation]:
    """Requirement ``finish(u)`` happens-before ``start(v)`` for every
    dependency edge, checked against a trace's timestamps (rule T004)."""
    for u, v, _w in graph.edges():
        start_v = trace.op_start.get(v)
        if start_v is None:
            continue
        fin_u = trace.op_finish.get(u)
        if fin_u is None:
            yield HbViolation(
                kind="dep",
                src=ev_finish(u),
                dst=ev_start(v),
                t_dst=start_v,
                u=u,
                v=v,
            )
        elif start_v < fin_u - eps:
            yield HbViolation(
                kind="dep",
                src=ev_finish(u),
                dst=ev_start(v),
                t_dst=start_v,
                t_src=fin_u,
                u=u,
                v=v,
            )


def transfer_violations(
    graph: OpGraph,
    schedule: Schedule,
    trace: "ExecutionTrace",
    *,
    eps: float = 1e-6,
    checkpointed: frozenset[str] = frozenset(),
) -> Iterator[HbViolation]:
    """Cross-GPU slack: ``start(v) >= finish(u) + t(u,v)`` (rule T005).

    ``checkpointed`` producers (finished before a failure, re-staged
    for free by the repair model) are exempt.
    """
    for u, v, w in graph.edges():
        if w <= 0.0 or u in checkpointed:
            continue
        if u not in schedule or v not in schedule:
            continue
        if schedule.gpu_of(u) == schedule.gpu_of(v):
            continue
        start_v, fin_u = trace.op_start.get(v), trace.op_finish.get(u)
        if start_v is None or fin_u is None:
            continue  # the dependency layer reports missing producers
        if start_v < fin_u + w - eps:
            yield HbViolation(
                kind="transfer",
                src=ev_finish(u),
                dst=ev_start(v),
                t_dst=start_v,
                t_src=fin_u,
                u=u,
                v=v,
                transfer=w,
            )


# ----------------------------------------------------------------------
# full linearization checks
# ----------------------------------------------------------------------
def event_times(hb: HbGraph, trace: "ExecutionTrace") -> list[float | None]:
    """Each event of ``hb``'s timestamp in ``trace``, by event index
    (``None``: the trace holds no such event)."""
    at: list[float | None] = [None] * hb.num_events
    index = hb.index
    for kind, stamps in (
        ("launch", trace.op_launch),
        ("start", trace.op_start),
        ("finish", trace.op_finish),
    ):
        for op, t in stamps.items():
            i = index.get(HbEvent(kind, op))
            if i is not None:
                at[i] = t
    for rec in trace.transfers:
        u, _, v = rec.tag.partition("->")
        i, j = index.get(ev_send(u, v)), index.get(ev_recv(u, v))
        if i is not None:
            at[i] = rec.post_time
        if j is not None:
            at[j] = rec.finish_time
    return at


def _edge_violations(
    hb: HbGraph, trace: "ExecutionTrace", eps: float
) -> Iterator[HbViolation]:
    """Every enforced edge whose destination the trace holds but whose
    source it holds later, or not at all (the source never happened)."""
    at = event_times(hb, trace)
    events = hb.events
    for a, ts in enumerate(at):
        for b, kind in hb.out_edges(a):
            td = at[b]
            if td is not None and (ts is None or td < ts - eps):
                yield HbViolation(
                    kind=kind, src=events[a], dst=events[b], t_dst=td, t_src=ts
                )


def check_engine_trace(
    graph: OpGraph,
    schedule: Schedule,
    trace: "ExecutionTrace",
    model: ExecModel | None = None,
    *,
    eps: float = 1e-6,
    structural: bool | None = None,
    hb: HbGraph | None = None,
) -> list[HbViolation]:
    """Verify an engine trace is a linearization of the HB graph.

    ``structural=None`` (the default) checks the enforced-edge layer
    only for complete traces: a partial failure trace was cut
    mid-flight, and a spliced repair trace, which keeps its
    ``failure`` marker, re-ran its tail under a different schedule.
    In that layer an event whose enforced predecessor is missing from
    the trace is a violation too.  ``model`` must match the engine
    configuration that produced the trace; the default matches a
    default :class:`~repro.substrate.engine.EngineConfig`.  ``hb``,
    when given, is that graph already compiled from ``(graph,
    schedule, model)`` (the engine passes its memoized one) and
    replaces ``model``.
    """
    failure = getattr(trace, "failure", None)
    checkpointed = (
        frozenset(failure.finished) if failure is not None else frozenset()
    )
    out = list(dependency_violations(graph, trace, eps=eps))
    out.extend(
        transfer_violations(
            graph, schedule, trace, eps=eps, checkpointed=checkpointed
        )
    )
    if structural is None:
        structural = failure is None
    if structural:
        if hb is None:
            hb = build_hb_graph(graph, schedule, model)
        out.extend(_edge_violations(hb, trace, eps))
    return out


def timeline_hb_graph(
    trace: "ExecutionTrace", op_gpu: Mapping[str, int]
) -> HbGraph:
    """The HB graph of a serve timeline: span lifecycle edges plus the
    exclusive-lease serialization of the spans placed on each GPU
    (ordered by dispatch time — arrivals may precede earlier releases,
    so host launch order carries no guarantee here)."""
    hb = HbGraph(model=ExecModel())
    spans = sorted(trace.op_start)
    per_gpu: dict[int, list[str]] = {}
    for name in spans:
        hb.add_edge(ev_launch(name), ev_start(name), "op")
        hb.add_edge(ev_start(name), ev_finish(name), "op")
        gpu = op_gpu.get(name)
        if gpu is not None:
            hb.gpu_of[name] = gpu
            per_gpu.setdefault(gpu, []).append(name)
    for gpu, names in sorted(per_gpu.items()):
        names.sort(key=lambda n: (trace.op_start.get(n, 0.0), n))
        for prev, nxt in zip(names, names[1:]):
            hb.add_edge(ev_finish(prev), ev_start(nxt), "lease")
    return hb


def check_timeline(
    trace: "ExecutionTrace",
    op_gpu: Mapping[str, int],
    *,
    eps: float = 1e-6,
) -> list[HbViolation]:
    """Verify a serve timeline linearizes its lease-order HB graph."""
    return list(_edge_violations(timeline_hb_graph(trace, op_gpu), trace, eps))
