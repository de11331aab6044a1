"""Happens-before graph: the engine's ordering guarantees, compiled.

:func:`build_hb_graph` compiles a ``(OpGraph, Schedule, ExecModel)``
triple into an explicit happens-before DAG over fine-grained events —
``launch(v)``, ``start(v)``, ``finish(v)`` per operator plus
``send(u,v)`` / ``recv(u,v)`` per cross-GPU message.  Every edge is an
ordering the engine *enforces* (the set ``E``):

``op``
    kernel lifecycle: ``launch(v) -> start(v) -> finish(v)``.
``program``
    serial host launch order: each GPU's host process issues launches
    one at a time in stage order, so consecutive launches on one GPU
    are ordered.
``stage``
    stage barrier: no operator of stage ``j+1`` is launched before
    every operator of stage ``j`` finished on that GPU.
``stream``
    CUDA-stream lane serialization: with ``max_streams = L`` the
    operators of a stage are dealt round-robin onto ``L`` streams and
    each kernel waits for its lane predecessor to finish (mirrors
    ``MultiGpuEngine``'s ``stream_pred`` assignment exactly).
``send``
    a transfer is posted only after its producer finished.
``chain``
    blocking ``MPI_Send``: the host posts one send at a time, so the
    send to the next consumer is posted only after the previous
    delivery (``send_blocking`` and not ``overlap_launch``).
``xfer``
    channel delivery: a message is received after it was sent.
``host``
    blocking launch mode (default CUDA-aware MPI): the host blocks in
    ``MPI_Recv`` before launching a consumer with remote inputs.
``data``
    eager-launch mode (``overlap_launch``, NCCL-style): the launch is
    enqueued immediately and only the kernel *start* waits for data.
``lease``
    serve timelines only: exclusive GPU leases serialize the spans
    placed on one GPU.

Orthogonally, :attr:`HbGraph.requirements` lists the orderings
correctness *requires* (the set ``R``): ``finish(u)`` happens-before
``start(v)`` for every dependency edge, plus the transfer-time slack
for cross-GPU edges.  The detectors in :mod:`repro.sanitize.detectors`
compare ``R`` against reachability in ``E``: a cycle in ``E`` is a
deadlock, an ``R`` edge not implied by ``E`` is a race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ..core.graph import OpGraph
from ..core.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..substrate.engine import EngineConfig

__all__ = [
    "EDGE_KINDS",
    "HbEvent",
    "Requirement",
    "ExecModel",
    "HbGraph",
    "build_hb_graph",
    "ev_launch",
    "ev_start",
    "ev_finish",
    "ev_send",
    "ev_recv",
]

#: Human explanation of every edge kind, used by witness formatting.
EDGE_KINDS: dict[str, str] = {
    "op": "kernel lifecycle order",
    "program": "serial host launch order",
    "stage": "stage barrier",
    "stream": "stream-lane serialization",
    "send": "send posts after the producer finishes",
    "chain": "blocking MPI_Send chain",
    "xfer": "transfer channel delivery",
    "host": "host blocks the launch on MPI_Recv",
    "data": "kernel start waits for remote data",
    "lease": "exclusive GPU lease",
    "dep": "dataflow dependency",
    "transfer": "cross-GPU transfer requirement",
}


class HbEvent(NamedTuple):
    """One fine-grained event.  ``other`` is empty for operator events
    and names the consumer for ``send``/``recv`` message events (whose
    ``op`` field names the producer)."""

    kind: str  # "launch" | "start" | "finish" | "send" | "recv"
    op: str
    other: str = ""

    def describe(self) -> str:
        if self.kind in ("send", "recv"):
            return f"{self.kind}({self.op!r}->{self.other!r})"
        return f"{self.kind}({self.op!r})"


def ev_launch(op: str) -> HbEvent:
    return HbEvent("launch", op)


def ev_start(op: str) -> HbEvent:
    return HbEvent("start", op)


def ev_finish(op: str) -> HbEvent:
    return HbEvent("finish", op)


def ev_send(u: str, v: str) -> HbEvent:
    return HbEvent("send", u, v)


def ev_recv(u: str, v: str) -> HbEvent:
    return HbEvent("recv", u, v)


@dataclass(frozen=True)
class Requirement:
    """One ordering correctness requires: ``finish(u)`` happens-before
    ``start(v)`` (with ``transfer`` ms of slack when ``cross``)."""

    u: str
    v: str
    transfer: float
    cross: bool

    @property
    def src(self) -> HbEvent:
        return ev_finish(self.u)

    @property
    def dst(self) -> HbEvent:
        return ev_start(self.v)


@dataclass(frozen=True)
class ExecModel:
    """The engine-semantics knobs the HB graph depends on.

    Mirrors the ordering-relevant subset of
    :class:`~repro.substrate.engine.EngineConfig`.  ``data_wait=False``
    models a backend with *no* per-message synchronization at all
    (e.g. replaying the schedule as a pre-recorded CUDA graph): the
    ``host``/``data`` edges disappear and every cross-GPU dependency
    must be proven some other way — there is no other way, so the
    analyzer reports them as races.  Keep it ``True`` unless you are
    auditing a schedule for such a backend.
    """

    overlap_launch: bool = False
    send_blocking: bool = True
    max_streams: int = 0
    data_wait: bool = True

    @classmethod
    def from_engine_config(cls, cfg: "EngineConfig") -> "ExecModel":
        return cls(
            overlap_launch=cfg.overlap_launch,
            send_blocking=cfg.send_blocking,
            max_streams=cfg.max_streams,
        )

    def describe(self) -> str:
        return (
            f"overlap_launch={self.overlap_launch} "
            f"send_blocking={self.send_blocking} "
            f"max_streams={self.max_streams} data_wait={self.data_wait}"
        )


@dataclass
class HbGraph:
    """The compiled happens-before DAG (it may be cyclic — that is the
    deadlock the detectors look for)."""

    model: ExecModel
    events: list[HbEvent] = field(default_factory=list)
    index: dict[HbEvent, int] = field(default_factory=dict)
    gpu_of: dict[str, int] = field(default_factory=dict)
    requirements: list[Requirement] = field(default_factory=list)
    _out: list[list[tuple[int, str]]] = field(default_factory=list)
    _in: list[list[tuple[int, str]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_event(self, event: HbEvent) -> int:
        idx = self.index.get(event)
        if idx is None:
            idx = len(self.events)
            self.index[event] = idx
            self.events.append(event)
            self._out.append([])
            self._in.append([])
        return idx

    def add_edge(self, src: HbEvent, dst: HbEvent, kind: str) -> None:
        if kind not in EDGE_KINDS:
            raise ValueError(f"unknown HB edge kind {kind!r}")
        a, b = self.add_event(src), self.add_event(dst)
        self._out[a].append((b, kind))
        self._in[b].append((a, kind))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self._out)

    def out_edges(self, idx: int) -> list[tuple[int, str]]:
        return self._out[idx]

    def in_edges(self, idx: int) -> list[tuple[int, str]]:
        return self._in[idx]

    def iter_edges(self) -> Iterator[tuple[HbEvent, HbEvent, str]]:
        for a, adj in enumerate(self._out):
            src = self.events[a]
            for b, kind in adj:
                yield src, self.events[b], kind

    def label(self, idx: int) -> str:
        ev = self.events[idx]
        text = ev.describe()
        gpu = self.gpu_of.get(ev.op)
        if gpu is not None and ev.kind not in ("send", "recv"):
            text += f" on GPU {gpu}"
        elif ev.kind in ("send", "recv"):
            gs, gd = self.gpu_of.get(ev.op), self.gpu_of.get(ev.other)
            if gs is not None and gd is not None:
                text += f" on channel GPU {gs}->{gd}"
        return text

    def topological_order(self) -> list[int] | None:
        """Kahn order of the event DAG, or ``None`` if it is cyclic."""
        n = self.num_events
        indeg = [len(self._in[i]) for i in range(n)]
        ready = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j, _kind in self._out[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        return order if len(order) == n else None

    def without_kinds(self, kinds: frozenset[str]) -> "HbGraph":
        """A copy with every edge of the given kinds removed (events and
        requirements are kept).  Used to ask "is this ordering still
        guaranteed without, say, the per-kernel data waits?"."""
        out = HbGraph(model=self.model)
        out.events = list(self.events)
        out.index = dict(self.index)
        out.gpu_of = dict(self.gpu_of)
        out.requirements = list(self.requirements)
        out._out = [
            [(b, k) for b, k in adj if k not in kinds] for adj in self._out
        ]
        out._in = [
            [(a, k) for a, k in adj if k not in kinds] for adj in self._in
        ]
        return out


def build_hb_graph(
    graph: OpGraph, schedule: Schedule, model: ExecModel | None = None
) -> HbGraph:
    """Compile the orderings the engine enforces for ``schedule`` on
    ``graph`` under ``model`` into an :class:`HbGraph`.

    The schedule is *not* validated first — the whole point is to
    analyze schedules that would fail validation (or were constructed
    with ``validate=False``).  Operators missing from either the graph
    or the schedule are skipped, matching the trace rules' behaviour.
    """
    model = model or ExecModel()
    hb = HbGraph(model=model)
    known = {op for op in graph.names if op in schedule}
    for op in known:
        hb.gpu_of[op] = schedule.gpu_of(op)

    # -- per-operator lifecycle ----------------------------------------
    for op in known:
        hb.add_edge(ev_launch(op), ev_start(op), "op")
        hb.add_edge(ev_start(op), ev_finish(op), "op")

    # -- per-GPU program order, stage barriers, stream lanes -----------
    for g in range(schedule.num_gpus):
        stages = [
            tuple(op for op in st.ops if op in known)
            for st in schedule.stages_on(g)
        ]
        stages = [ops for ops in stages if ops]
        flat = [op for ops in stages for op in ops]
        for prev, nxt in zip(flat, flat[1:]):
            hb.add_edge(ev_launch(prev), ev_launch(nxt), "program")
        for before, after in zip(stages, stages[1:]):
            head = after[0]
            for op in before:
                hb.add_edge(ev_finish(op), ev_launch(head), "stage")
        if model.max_streams > 0:
            # exactly the engine's _EngineRun.assign_streams: round-robin lanes
            for ops in stages:
                tails: dict[int, str] = {}
                for i, op in enumerate(ops):
                    lane = i % model.max_streams
                    prev_tail = tails.get(lane)
                    if prev_tail is not None:
                        hb.add_edge(
                            ev_finish(prev_tail), ev_start(op), "stream"
                        )
                    tails[lane] = op

    # -- dependency and transfer edges ---------------------------------
    blocking_sends = model.send_blocking and not model.overlap_launch
    for u, v, w in graph.edges():
        if u not in known or v not in known:
            continue
        cross = hb.gpu_of[u] != hb.gpu_of[v]
        hb.requirements.append(
            Requirement(u=u, v=v, transfer=w if cross else 0.0, cross=cross)
        )
        if not cross:
            continue
        hb.add_edge(ev_finish(u), ev_send(u, v), "send")
        hb.add_edge(ev_send(u, v), ev_recv(u, v), "xfer")
        if model.data_wait:
            if model.overlap_launch:
                hb.add_edge(ev_recv(u, v), ev_start(v), "data")
            else:
                hb.add_edge(ev_recv(u, v), ev_launch(v), "host")
    if blocking_sends:
        # the host posts one blocking MPI_Send at a time, to remote
        # consumers in sorted order (the engine's _EngineRun.send_outputs)
        for u in known:
            remote = sorted(
                s
                for s in graph.successors(u)
                if s in known and hb.gpu_of[s] != hb.gpu_of[u]
            )
            for a, b in zip(remote, remote[1:]):
                hb.add_edge(ev_recv(u, a), ev_send(u, b), "chain")
    return hb
