"""Discrete-event multi-GPU execution engine.

This is the reproduction of the paper's runtime (Section VI-A): a
cuDNN-based engine extended with one MPI process per GPU and CUDA-aware
MPI transfers.  Given a cost-annotated graph and a schedule, it *plays
out* the execution and reports measured times — deliberately not
identical to the analytic evaluator the schedulers optimize:

* **Kernel launches** are issued serially by each GPU's host process
  and cost ``launch_overhead`` each.  In the default CUDA-aware-MPI
  mode the host *blocks* on an operator whose remote inputs have not
  arrived (an ``MPI_Recv`` before the dependent launch), which delays
  every later launch of the stage — the effect the paper blames for
  HIOS-LP trailing IOS on NASNet with small inputs (§VI-E).  The
  ``overlap_launch`` option models the suggested NCCL-style fix where
  launches are enqueued eagerly and only the kernel start waits for
  data.
* **Within a stage**, operators do not all start at the stage boundary;
  each starts as soon as it is launched and its data is ready (the
  "may execute earlier in a practical system" remark of §III-A).
* **Concurrent kernels** share the device by processor sharing: when
  the summed occupancy ``U`` of running kernels exceeds 1, every
  resident kernel slows by ``U * (1 + penalty * (U - 1))`` — consistent
  with (but not numerically equal to) the analytic ``t(S)`` model.
* **Transfers** serialize per link direction through
  :class:`~repro.substrate.mpi.SimFabric`.

Stages on one GPU still execute as barriers: no operator of stage
``j+1`` is launched before every operator of stage ``j`` completed on
that GPU.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from .events import EventQueue
from .faults import FailureEvent, FaultPlan, GpuFailure, GpuRepair
from .link import LinkModel, NVLINK_BRIDGE
from .mpi import SimFabric, TransferRecord

__all__ = [
    "EngineError",
    "EngineConfig",
    "ExecutionTrace",
    "MultiGpuEngine",
    "replays_fault_free",
]

_EPS = 1e-9


def replays_fault_free(plan: FaultPlan | None, latency: float) -> bool:
    """Whether a run under ``plan`` reproduces the fault-free run that
    ends at ``latency``, bit for bit.

    True for an empty plan, and for a plan holding only
    :class:`~repro.substrate.faults.GpuFailure` specs that all fire
    after ``latency + _EPS`` (:class:`~repro.substrate.faults.GpuRepair`
    specs are ignored, as :meth:`MultiGpuEngine.run` ignores them).  The
    main loop pops discrete events up to ``now + _EPS`` and stops at the
    last kernel finish, which is ``latency``; a later failure therefore
    never pops, and its heap entry never reorders the others.  For such
    failure-only plans the test is exact.  Any slowdown, link
    degradation or transfer loss makes it false, whatever its time.
    The plan is assumed valid for the run's GPU count
    (:meth:`~repro.substrate.faults.FaultPlan.validate_for`).

    The test only gets stricter as ``latency`` grows, so a plan that
    fails it at ``latency=0`` replays no trace at all.
    """
    if not plan:
        return True
    for spec in plan.specs:
        if isinstance(spec, GpuFailure):
            if spec.at <= latency + _EPS:
                return False
        elif not isinstance(spec, GpuRepair):
            return False
    return True


class EngineError(RuntimeError):
    """Raised when a run cannot make progress (deadlock) or is misused."""


@dataclass(frozen=True)
class EngineConfig:
    """Runtime knobs of the engine.

    ``launch_overhead_ms`` is charged per kernel launch on the host;
    when ``launch_included_in_cost`` is true (platform-priced graphs,
    where the device model already folds the launch into ``t(v)``) the
    kernel's device-side duration is ``t(v) - launch_overhead_ms``.
    ``contention_penalty`` matches the analytic saturation model's
    ``lam``.  ``overlap_launch`` selects the NCCL-style eager-launch
    mode.  ``transfer_from_edges`` prices messages with graph edge
    weights instead of the link model (used by the synthetic Section V
    workloads whose edges carry transfer times directly).

    ``faults`` injects a :class:`~repro.substrate.faults.FaultPlan`:
    per-GPU speeds and link bandwidths become time-varying, transfers
    may be lost and retried, and a ``GpuFailure`` fail-stops the run
    (the trace then carries a ``failure`` event for the repair path).
    An empty plan is equivalent to ``None`` — traces stay bit-identical
    to the fault-free engine.  ``watchdog_horizon_ms`` (0 = disabled)
    bounds how long the simulated clock may sit without any launch,
    delivery or kernel completion while no kernel is running; beyond it
    the engine raises a diagnostic :class:`EngineError` instead of
    jumping ahead.

    ``sanitize`` controls the TSan-style happens-before sanitizer
    (:mod:`repro.sanitize.runtime`): ``True`` forces it on, ``False``
    off, and ``None`` (the default) defers to the ``HIOS_SANITIZE``
    environment variable.  When active, the run first fails fast on
    statically deadlocked schedules (with a witness cycle, before the
    event loop ever starts) and then cross-checks every launch, kernel
    start/finish and transfer post/delivery against the happens-before
    model, raising with a causal chain on any contradiction.
    """

    launch_overhead_ms: float = 0.007
    launch_included_in_cost: bool = True
    contention_penalty: float = 0.06
    stream_overhead: float = 0.0
    overlap_launch: bool = False
    send_blocking: bool = True
    transfer_from_edges: bool = True
    max_streams: int = 0
    fabric_serializes: bool = True
    gpu_speeds: Sequence[float] | None = None
    link: LinkModel = NVLINK_BRIDGE
    faults: FaultPlan | None = None
    watchdog_horizon_ms: float = 0.0
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        if self.launch_overhead_ms < 0:
            raise ValueError("negative launch overhead")
        if self.contention_penalty < 0:
            raise ValueError("negative contention penalty")
        if self.stream_overhead < 0:
            raise ValueError("negative stream overhead")
        if self.max_streams < 0:
            raise ValueError("max_streams must be >= 0 (0 = unbounded)")
        if self.gpu_speeds is not None and any(sp <= 0 for sp in self.gpu_speeds):
            raise ValueError("GPU speed factors must be positive")
        if self.watchdog_horizon_ms < 0:
            raise ValueError("negative watchdog horizon")


@dataclass
class ExecutionTrace:
    """Measured outcome of one engine run.

    ``failure`` is ``None`` for a completed run.  When a
    :class:`~repro.substrate.faults.GpuFailure` fired mid-run, the
    trace is *partial*: it covers execution up to the failure instant
    (``latency`` equals the failure time, in-flight operators have a
    start but no finish) and ``failure`` records the hand-off state for
    :func:`repro.core.repair.repair_schedule`.
    """

    latency: float
    op_launch: dict[str, float]
    op_start: dict[str, float]
    op_finish: dict[str, float]
    transfers: list[TransferRecord]
    gpu_busy: dict[int, float]
    failure: FailureEvent | None = None

    @property
    def completed(self) -> bool:
        return self.failure is None

    @property
    def num_transfers(self) -> int:
        return len(self.transfers)

    def unfinished_ops(self, names: Iterable[str]) -> list[str]:
        """The operators of ``names`` with no recorded finish, in order.

        Empty for a completed run *and* for a spliced repair trace that
        recovered every operator (such traces keep their ``failure``
        marker, so ``failure is None`` alone cannot tell "repaired" from
        "gave up mid-repair").
        """
        return [v for v in names if v not in self.op_finish]

    @property
    def bytes_transferred(self) -> int:
        return sum(t.num_bytes for t in self.transfers)

    def utilization(self, gpu: int) -> float:
        """Busy time of one GPU divided by the end-to-end latency.

        Clamped to ``[0, 1]``: on a partial failure trace the latency
        is cut at the failure instant while ``gpu_busy`` may still
        account a mid-kernel tick of the doomed device (and spliced
        repair traces add busy time across segments), so the raw ratio
        can exceed 1.0 — a utilization above 100% is never meaningful,
        only a symptom of that accounting cut.
        """
        if self.latency <= 0:
            return 0.0
        return min(1.0, self.gpu_busy.get(gpu, 0.0) / self.latency)

    # ------------------------------------------------------------------
    # JSON contract (``repro.trace/v1``) — lets ``repro lint`` verify
    # traces persisted by experiment runs, not just in-process objects.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "format": "repro.trace/v1",
            "latency": self.latency,
            "op_launch": dict(self.op_launch),
            "op_start": dict(self.op_start),
            "op_finish": dict(self.op_finish),
            "transfers": [asdict(t) for t in self.transfers],
            "gpu_busy": {str(g): busy for g, busy in self.gpu_busy.items()},
        }
        if self.failure is not None:
            doc["failure"] = {
                "gpu": self.failure.gpu,
                "time": self.failure.time,
                "finished": sorted(self.failure.finished),
                "in_flight": sorted(self.failure.in_flight),
            }
        return doc

    @staticmethod
    def _op_name_set(value: object, field: str) -> frozenset[str]:
        """Parse a failure op-name list, rejecting scalar look-alikes.

        ``frozenset("abc")`` silently yields ``{"a", "b", "c"}`` — a
        JSON document carrying ``"finished": "op1"`` must be rejected,
        not split into characters.
        """
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            raise EngineError(
                f"trace failure field {field!r} must be an array of operator "
                f"names, got {type(value).__name__}"
            )
        for item in value:
            if not isinstance(item, str):
                raise EngineError(
                    f"trace failure field {field!r} must contain only operator "
                    f"name strings, got {type(item).__name__}"
                )
        return frozenset(value)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionTrace":
        fmt = data.get("format", "repro.trace/v1")
        if fmt != "repro.trace/v1":
            raise EngineError(f"unsupported trace format {fmt!r}")
        raw_failure = data.get("failure")
        failure = None
        if raw_failure is not None:
            # a plain `assert` disappears under `python -O`; malformed
            # documents must fail loudly regardless of interpreter flags
            if not isinstance(raw_failure, Mapping):
                raise EngineError(
                    "malformed trace document: 'failure' must be an object, "
                    f"got {type(raw_failure).__name__}"
                )
            try:
                failure = FailureEvent(
                    gpu=int(raw_failure["gpu"]),  # type: ignore[arg-type]
                    time=float(raw_failure["time"]),  # type: ignore[arg-type]
                    finished=cls._op_name_set(raw_failure["finished"], "finished"),
                    in_flight=cls._op_name_set(raw_failure["in_flight"], "in_flight"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise EngineError(f"malformed trace document: {exc}") from exc
        try:
            return cls(
                latency=float(data["latency"]),  # type: ignore[arg-type]
                op_launch={str(k): float(v) for k, v in dict(data.get("op_launch", {})).items()},  # type: ignore[arg-type]
                op_start={str(k): float(v) for k, v in dict(data.get("op_start", {})).items()},  # type: ignore[arg-type]
                op_finish={str(k): float(v) for k, v in dict(data.get("op_finish", {})).items()},  # type: ignore[arg-type]
                transfers=[TransferRecord(**t) for t in data.get("transfers", [])],  # type: ignore[arg-type, union-attr]
                gpu_busy={int(k): float(v) for k, v in dict(data.get("gpu_busy", {})).items()},  # type: ignore[arg-type]
                failure=failure,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EngineError(f"malformed trace document: {exc}") from exc


class MultiGpuEngine:
    """Executes a (graph, schedule) pair under an :class:`EngineConfig`."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()

    # ------------------------------------------------------------------
    def run(self, graph: OpGraph, schedule: Schedule, validate: bool = True) -> ExecutionTrace:
        if validate:
            schedule.validate(graph)
        cfg = self.config
        M = schedule.num_gpus
        if cfg.gpu_speeds is not None and len(cfg.gpu_speeds) < M:
            raise EngineError(
                f"EngineConfig.gpu_speeds has {len(cfg.gpu_speeds)} entries but "
                f"the schedule uses {M} GPUs; provide one speed factor per GPU"
            )
        # an empty plan is falsy — treat it exactly like "no faults" so
        # fault-free traces stay bit-identical to the pre-fault engine
        plan = cfg.faults if cfg.faults else None
        if plan is not None:
            plan.validate_for(M)
        # TSan-style happens-before sanitizer (HIOS_SANITIZE / cfg.sanitize).
        # Imported lazily: repro.sanitize depends on this module for its
        # exception hierarchy.  Construction statically detects deadlocked
        # schedules and raises with a witness cycle before the event loop
        # (and in particular the stall watchdog) is ever reached.
        from ..sanitize.runtime import sanitizer_for

        sanitizer = sanitizer_for(graph, schedule, cfg)
        fabric = SimFabric(
            max(M, 1), cfg.link, serialize=cfg.fabric_serializes, faults=plan
        )
        events = EventQueue()

        stage_lists = [schedule.stages_on(g) for g in range(M)]
        stage_idx = [0] * M
        stage_remaining = [len(q[0]) if q else 0 for q in stage_lists]
        pending: list[deque[str]] = [
            deque(q[0].ops) if q else deque() for q in stage_lists
        ]
        host_free = [0.0] * M
        host_blocked = [False] * M

        gpu_of = schedule.assignment()
        remote_pending: dict[str, int] = {}
        for v in graph.names:
            remote_pending[v] = sum(
                1 for u in graph.predecessors(v) if gpu_of[u] != gpu_of[v]
            )

        running: list[dict[str, float]] = [dict() for _ in range(M)]  # op -> remaining
        slowdown = [1.0] * M
        fault_speed = [1.0] * M  # time-varying speed factor from injected faults
        last_update = [0.0] * M
        awaiting_data: set[str] = set()  # launched, waiting for remote input (overlap)
        finished: set[str] = set()
        launched: set[str] = set()
        started: set[str] = set()

        # CUDA-stream serialization: within each stage, operators are
        # dealt round-robin onto L streams; stream_pred[op] is the op
        # that must finish before op's kernel may start.
        stream_pred: dict[str, str | None] = {}
        stream_succ: dict[str, str] = {}

        def assign_streams(ops: tuple[str, ...]) -> None:
            if cfg.max_streams <= 0:
                for op in ops:
                    stream_pred[op] = None
                return
            tails: dict[int, str] = {}
            for i, op in enumerate(ops):
                lane = i % cfg.max_streams
                prev = tails.get(lane)
                stream_pred[op] = prev
                if prev is not None:
                    stream_succ[prev] = op
                tails[lane] = op

        for g0 in range(M):
            for st in stage_lists[g0]:
                assign_streams(st.ops)

        op_launch: dict[str, float] = {}
        op_start: dict[str, float] = {}
        op_finish: dict[str, float] = {}
        gpu_busy = dict.fromkeys(range(M), 0.0)
        unfinished = len(graph)
        now = 0.0
        last_progress = 0.0  # last launch / delivery / kernel completion
        failure: FailureEvent | None = None

        # -------------------------------- helpers
        def recompute_slowdown(g: int) -> None:
            total = sum(graph.operator(op).occupancy for op in running[g])
            if total <= 1.0:
                base = 1.0
            else:
                base = total * (1.0 + cfg.contention_penalty * (total - 1.0))
            streams = 1.0 + cfg.stream_overhead * max(0, len(running[g]) - 1)
            rate = base * streams
            if fault_speed[g] != 1.0:
                rate /= fault_speed[g]
            slowdown[g] = rate

        def settle(g: int, t: float) -> None:
            """Account execution progress of GPU g up to time t."""
            dt = t - last_update[g]
            if dt > 0 and running[g]:
                step = dt / slowdown[g]
                for op in running[g]:
                    running[g][op] -= step
                gpu_busy[g] += dt
            last_update[g] = t

        def gpu_speed(g: int) -> float:
            if cfg.gpu_speeds is None:
                return 1.0
            return cfg.gpu_speeds[g]

        def exec_duration(op: str, g: int) -> float:
            cost = graph.cost(op)
            if cfg.launch_included_in_cost:
                cost = max(0.0, cost - cfg.launch_overhead_ms)
            return cost / gpu_speed(g)

        def start_kernel(g: int, op: str, t: float) -> None:
            settle(g, t)
            started.add(op)
            op_start[op] = t
            if sanitizer is not None:
                sanitizer.observe_start(op, t)
            running[g][op] = exec_duration(op, g)
            recompute_slowdown(g)

        def try_start(g: int, op: str, t: float) -> None:
            """Start the kernel once launched, fed, and stream-clear."""
            if op in started:
                return
            if op not in launched:
                return
            if cfg.overlap_launch and remote_pending[op] > 0:
                return
            pred = stream_pred.get(op)
            if pred is not None and pred not in finished:
                return
            start_kernel(g, op, t)

        def advance_host(g: int, t: float) -> None:
            """Issue launches for the active stage until blocked/done."""
            host_blocked[g] = False
            while pending[g]:
                head = pending[g][0]
                if not cfg.overlap_launch and remote_pending[head] > 0:
                    host_blocked[g] = True
                    return
                pending[g].popleft()
                t_done = max(host_free[g], t) + cfg.launch_overhead_ms
                host_free[g] = t_done
                events.push(t_done, "launch_done", (g, head))

        def stall_diagnostic() -> str:
            """Name who is stuck on what (deadlock / watchdog reports)."""
            parts: list[str] = []
            for g in range(M):
                if pending[g]:
                    head = pending[g][0]
                    need = remote_pending.get(head, 0)
                    msg = f"GPU {g} host blocked on {head!r}"
                    if need > 0:
                        msg += f" ({need} remote input(s) outstanding)"
                    parts.append(msg)
            waiting = sorted(
                op
                for op in graph.names
                if op not in finished and remote_pending.get(op, 0) > 0
            )
            if waiting:
                shown = ", ".join(repr(op) for op in waiting[:8])
                if len(waiting) > 8:
                    shown += f", ... ({len(waiting) - 8} more)"
                parts.append(f"operators awaiting remote data: {shown}")
            return "; ".join(parts) if parts else "no host is blocked"

        def finish_kernel(g: int, op: str, t: float) -> None:
            nonlocal unfinished, last_progress
            last_progress = t
            del running[g][op]
            recompute_slowdown(g)
            op_finish[op] = t
            finished.add(op)
            if sanitizer is not None:
                sanitizer.observe_finish(op, t)
            unfinished -= 1
            succ = stream_succ.get(op)
            if succ is not None:
                try_start(g, succ, t)
            # transfers to remote consumers (sorted for determinism).
            # Under send_blocking the host issues them one blocking
            # MPI_Send at a time, so each send is posted only after the
            # previous one delivered (matching the analytic evaluator's
            # serialized-send semantics).
            blocking = cfg.send_blocking and not cfg.overlap_launch
            cursor = t
            last_delivery = t
            for s in sorted(graph.successors(op)):
                gs = gpu_of[s]
                if gs == g:
                    continue
                post_at = cursor if blocking else t
                if cfg.transfer_from_edges:
                    delivery = fabric.post_send(
                        post_at, g, gs, num_bytes=graph.operator(op).output_bytes,
                        duration=graph.transfer(op, s), tag=f"{op}->{s}",
                    )
                else:
                    delivery = fabric.post_send(
                        post_at, g, gs, num_bytes=graph.operator(op).output_bytes,
                        tag=f"{op}->{s}",
                    )
                events.push(delivery, "data_arrival", (s, op))
                if sanitizer is not None:
                    # transfer events are reported at post time with
                    # their real timestamps; observation is idempotent
                    # so the later data_arrival needs no second report
                    sanitizer.observe_send(op, s, post_at)
                    sanitizer.observe_recv(op, s, delivery)
                cursor = delivery
                last_delivery = max(last_delivery, delivery)
            if blocking and last_delivery > t:
                # the host's blocking MPI sends stall subsequent launches
                host_free[g] = max(host_free[g], last_delivery)
            # stage bookkeeping
            stage_remaining[g] -= 1
            if stage_remaining[g] == 0:
                stage_idx[g] += 1
                if stage_idx[g] < len(stage_lists[g]):
                    nxt = stage_lists[g][stage_idx[g]]
                    stage_remaining[g] = len(nxt)
                    pending[g].extend(nxt.ops)
                    advance_host(g, t)

        # -------------------------------- schedule injected faults
        if plan is not None:
            for slow in plan.slowdowns():
                events.push(slow.at, "gpu_slowdown", slow)
            first_failure = plan.first_failure()
            if first_failure is not None:
                events.push(first_failure.at, "gpu_failure", first_failure)

        # -------------------------------- prime the hosts
        for g in range(M):
            advance_host(g, 0.0)

        # -------------------------------- main loop
        while unfinished > 0:
            # next discrete event vs. next projected kernel finish
            t_next = events.peek_time()
            for g in range(M):
                if running[g]:
                    proj = last_update[g] + min(running[g].values()) * slowdown[g]
                    if t_next is None or proj < t_next:
                        t_next = proj
            if t_next is None:
                raise EngineError(
                    "engine deadlock: no pending events but "
                    f"{unfinished} operators unfinished; {stall_diagnostic()}"
                )
            if (
                cfg.watchdog_horizon_ms > 0
                and not any(running)
                and t_next - last_progress > cfg.watchdog_horizon_ms
            ):
                raise EngineError(
                    "engine watchdog: no launch, delivery or kernel completion "
                    f"since t={last_progress:.3f} ms, no kernel running, and "
                    f"the next event is only at t={t_next:.3f} ms (horizon "
                    f"{cfg.watchdog_horizon_ms:g} ms); {stall_diagnostic()}"
                )
            t_next = max(t_next, now)
            now = t_next

            for g in range(M):
                settle(g, now)
            # kernels that ran out of work
            for g in range(M):
                done = [op for op, rem in running[g].items() if rem <= _EPS]
                for op in done:
                    finish_kernel(g, op, now)
            # discrete events due now
            for ev in events.pop_until(now + _EPS):
                if ev.kind == "launch_done":
                    g, op = ev.payload
                    op_launch[op] = ev.time
                    launched.add(op)
                    if sanitizer is not None:
                        sanitizer.observe_launch(op, ev.time)
                    last_progress = now
                    if cfg.overlap_launch and remote_pending[op] > 0:
                        awaiting_data.add(op)
                    else:
                        try_start(g, op, now)
                elif ev.kind == "data_arrival":
                    consumer, _producer = ev.payload
                    remote_pending[consumer] -= 1
                    last_progress = now
                    if remote_pending[consumer] == 0:
                        g = gpu_of[consumer]
                        if consumer in awaiting_data:
                            awaiting_data.discard(consumer)
                            try_start(g, consumer, now)
                        elif host_blocked[g]:
                            advance_host(g, now)
                elif ev.kind == "gpu_slowdown":
                    slow = ev.payload
                    fault_speed[slow.gpu] *= slow.factor
                    recompute_slowdown(slow.gpu)
                elif ev.kind == "gpu_failure":
                    spec = ev.payload
                    failure = FailureEvent(
                        gpu=spec.gpu,
                        time=now,
                        finished=frozenset(finished),
                        in_flight=frozenset(
                            op for per_gpu in running for op in per_gpu
                        ),
                    )
                    break  # fail-stop: discard the rest of this tick
                else:  # pragma: no cover - defensive
                    raise EngineError(f"unknown event kind {ev.kind!r}")
            if failure is not None:
                break

        if failure is not None:
            # partial trace, cut at the failure instant; in-flight
            # operators keep their start time but have no finish
            return ExecutionTrace(
                latency=failure.time,
                op_launch=op_launch,
                op_start=op_start,
                op_finish=op_finish,
                transfers=fabric.records,
                gpu_busy=gpu_busy,
                failure=failure,
            )
        latency = max(op_finish.values(), default=0.0)
        return ExecutionTrace(
            latency=latency,
            op_launch=op_launch,
            op_start=op_start,
            op_finish=op_finish,
            transfers=fabric.records,
            gpu_busy=gpu_busy,
        )
