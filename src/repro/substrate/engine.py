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
  :class:`~repro.substrate.mpi.SimFabric`; each takes the graph's edge
  weight ``t(u, v)`` (which :class:`~repro.substrate.profiler.
  PlatformProfiler` prices through the link model).

Stages on one GPU still execute as barriers: no operator of stage
``j+1`` is launched before every operator of stage ``j`` completed on
that GPU.

:meth:`MultiGpuEngine.run` checks its inputs and then drains one
private run-state object, ``_EngineRun``: an event heap whose entries
carry their handler, and the trace being written, which is also the
run's bookkeeping.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from ..formats import TRACE_FORMAT, scalar_fields
from .faults import FailureEvent, FaultPlan, GpuFailure, GpuRepair, GpuSlowdown
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
    specs are ignored, as :meth:`MultiGpuEngine.run` ignores them).  Each
    tick of the run pops every discrete event due by ``now + _EPS``
    before it handles any, and the run stops at the last kernel finish,
    which is ``latency``; a later failure therefore never pops, and its
    heap entry never reorders the others.  For such failure-only plans
    the test is exact.  Any slowdown, link degradation or transfer loss
    makes it false, whatever its time.  The plan is assumed valid for
    the run's GPU count
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
    mode.  ``link`` gives the fabric its duplex mode; a message's
    duration is always the graph's edge weight.

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

    ``sanitize`` controls the happens-before check
    (:mod:`repro.sanitize.runtime`): ``True`` forces it on, ``False``
    off, and ``None`` (the default) defers to the ``HIOS_SANITIZE``
    environment variable.  When active, the run first fails fast on
    statically deadlocked schedules (with a witness cycle, before the
    event loop ever starts), and after the run checks the trace it
    wrote — every launch, kernel start/finish and transfer
    post/delivery — against the happens-before model, raising
    :class:`~repro.sanitize.SanitizeViolation` with a causal chain for
    the earliest contradiction.
    """

    launch_overhead_ms: float = 0.007
    launch_included_in_cost: bool = True
    contention_penalty: float = 0.06
    stream_overhead: float = 0.0
    overlap_launch: bool = False
    send_blocking: bool = True
    max_streams: int = 0
    fabric_serializes: bool = True
    gpu_speeds: Sequence[float] | None = None
    link: LinkModel = NVLINK_BRIDGE
    faults: FaultPlan | None = None
    watchdog_horizon_ms: float = 0.0
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        for name in ("launch_overhead_ms", "contention_penalty", "stream_overhead",
                     "watchdog_horizon_ms"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.max_streams < 0:
            raise ValueError("max_streams must be >= 0 (0 = unbounded)")
        if self.gpu_speeds is not None and not all(0 < sp < math.inf for sp in self.gpu_speeds):
            raise ValueError("GPU speed factors must be positive and finite")


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
            "format": TRACE_FORMAT,
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
        if not isinstance(data, Mapping):
            raise EngineError(
                "malformed trace document: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        fmt = data.get("format", TRACE_FORMAT)
        if fmt != TRACE_FORMAT:
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
                gpu = raw_failure["gpu"]
                # a JSON integer only: int() would take true as GPU 1,
                # truncate 2.5, parse "2" and overflow on 1e400
                if not isinstance(gpu, int) or isinstance(gpu, bool):
                    raise TypeError(f"failure 'gpu' must be an integer, got {gpu!r}")
                failure = FailureEvent(
                    gpu=gpu,
                    time=float(raw_failure["time"]),  # type: ignore[arg-type]
                    finished=cls._op_name_set(raw_failure["finished"], "finished"),
                    in_flight=cls._op_name_set(raw_failure["in_flight"], "in_flight"),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise EngineError(f"malformed trace document: {exc}") from exc
        try:
            trace = cls(
                latency=float(data["latency"]),  # type: ignore[arg-type]
                op_launch={str(k): float(v) for k, v in dict(data.get("op_launch", {})).items()},  # type: ignore[arg-type]
                op_start={str(k): float(v) for k, v in dict(data.get("op_start", {})).items()},  # type: ignore[arg-type]
                op_finish={str(k): float(v) for k, v in dict(data.get("op_finish", {})).items()},  # type: ignore[arg-type]
                transfers=[
                    TransferRecord(**scalar_fields(TransferRecord, t, TypeError, "transfer"))
                    for t in data.get("transfers", [])  # type: ignore[union-attr]
                ],
                gpu_busy={int(k): float(v) for k, v in dict(data.get("gpu_busy", {})).items()},  # type: ignore[arg-type]
                failure=failure,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EngineError(f"malformed trace document: {exc}") from exc
        unstarted = sorted(trace.op_finish.keys() - trace.op_start.keys())
        if unstarted:  # attribution walks from each finish back to its start
            raise EngineError(
                f"malformed trace document: operator {unstarted[0]!r} finishes "
                "without a start"
            )
        return trace


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
        # happens-before check (HIOS_SANITIZE / cfg.sanitize), imported
        # lazily: repro.sanitize depends on this module for its exception
        # hierarchy.  A deadlocked schedule raises with a witness cycle
        # before the run state (and in particular its first event) exists;
        # the trace the run wrote is checked once it is over.
        from ..sanitize.runtime import check_run, sanitizer_for

        hb = sanitizer_for(graph, schedule, cfg)
        trace = _EngineRun(graph, schedule, cfg, plan).drain()
        if hb is not None:
            check_run(graph, schedule, trace, hb)
        return trace


_Handler = Callable[[float, Any], None]


class _EngineRun:
    """The state of one engine run; its methods are the loop's handlers.

    The event heap holds ``(time, seq, handler, payload)``, so ties
    break by push order.  There is one handler per discrete event kind:
    :meth:`on_launch` (a host's launch call returned), :meth:`on_arrival`
    (a remote input was delivered), :meth:`on_slowdown` and
    :meth:`on_failure` (injected faults).  Kernel completions are
    projected from each GPU's running set instead (:meth:`drain`).

    The trace being written is the bookkeeping: an operator has been
    launched, started or finished exactly when it has an entry in
    ``op_launch``, ``op_start`` or ``op_finish``, and the run is over
    when every operator has a finish.
    """

    def __init__(
        self,
        graph: OpGraph,
        schedule: Schedule,
        cfg: EngineConfig,
        plan: FaultPlan | None,
    ) -> None:
        M = schedule.num_gpus
        self.graph = graph
        self.cfg = cfg
        self.num_gpus = M
        self.fabric = SimFabric(
            max(M, 1), cfg.link, serialize=cfg.fabric_serializes, faults=plan
        )
        self.heap: list[tuple[float, int, _Handler, Any]] = []
        self.seq = 0
        self.gpu_of = gpu_of = schedule.assignment()
        self.speed = [1.0] * M if cfg.gpu_speeds is None else list(cfg.gpu_speeds)
        # per GPU: the stages after the active one, how many of the
        # active one's operators have not finished, and which of them
        # the host has not launched yet
        stages = [schedule.stages_on(g) for g in range(M)]
        self.later_stages = [iter(q[1:]) for q in stages]
        self.stage_remaining = [len(q[0]) if q else 0 for q in stages]
        self.pending = [deque(q[0].ops) if q else deque() for q in stages]
        self.host_free = [0.0] * M
        self.remote_pending = {
            v: sum(1 for u in graph.predecessors(v) if gpu_of[u] != gpu_of[v])
            for v in graph.names
        }
        self.running: list[dict[str, float]] = [{} for _ in range(M)]  # op -> remaining
        self.slowdown = [1.0] * M
        self.fault_speed = [1.0] * M  # time-varying speed factor from injected faults
        self.last_update = [0.0] * M
        # CUDA-stream serialization: an operator's kernel starts only
        # after its stream predecessor's finished (assign_streams)
        self.stream_pred: dict[str, str] = {}
        self.stream_succ: dict[str, str] = {}
        if cfg.max_streams > 0:
            for per_gpu in stages:
                for st in per_gpu:
                    self.assign_streams(st.ops)
        self.op_launch: dict[str, float] = {}
        self.op_start: dict[str, float] = {}
        self.op_finish: dict[str, float] = {}
        self.gpu_busy = dict.fromkeys(range(M), 0.0)
        self.now = 0.0
        self.last_progress = 0.0  # last launch / delivery / kernel completion
        self.failure: FailureEvent | None = None
        if plan is not None:
            for slow in plan.slowdowns():
                self.push(slow.at, self.on_slowdown, slow)
            first_failure = plan.first_failure()
            if first_failure is not None:
                self.push(first_failure.at, self.on_failure, first_failure)
        for g in range(M):
            self.advance_host(g, 0.0)

    def push(self, time: float, handler: _Handler, payload: Any) -> None:
        heapq.heappush(self.heap, (time, self.seq, handler, payload))
        self.seq += 1

    def assign_streams(self, ops: tuple[str, ...]) -> None:
        """Deal a stage's operators round-robin onto ``max_streams``
        lanes: each follows the operator ``max_streams`` places earlier."""
        for prev, op in zip(ops, ops[self.cfg.max_streams :]):
            self.stream_pred[op] = prev
            self.stream_succ[prev] = op

    def drain(self) -> ExecutionTrace:
        """Run until every operator finished or a GPU failed."""
        cfg = self.cfg
        heap = self.heap
        running = self.running
        op_finish = self.op_finish
        gpus = range(self.num_gpus)
        n = len(self.graph)
        while len(op_finish) < n:
            # next discrete event vs. next projected kernel finish
            t_next = heap[0][0] if heap else None
            for g in gpus:
                if running[g]:
                    proj = self.last_update[g] + min(running[g].values()) * self.slowdown[g]
                    if t_next is None or proj < t_next:
                        t_next = proj
            if t_next is None:
                raise EngineError(
                    "engine deadlock: no pending events but "
                    f"{n - len(op_finish)} operators unfinished; "
                    f"{self.stall_diagnostic()}"
                )
            if (
                cfg.watchdog_horizon_ms > 0
                and not any(running)
                and t_next - self.last_progress > cfg.watchdog_horizon_ms
            ):
                raise EngineError(
                    "engine watchdog: no launch, delivery or kernel completion "
                    f"since t={self.last_progress:.3f} ms, no kernel running, and "
                    f"the next event is only at t={t_next:.3f} ms (horizon "
                    f"{cfg.watchdog_horizon_ms:g} ms); {self.stall_diagnostic()}"
                )
            now = self.now = max(t_next, self.now)
            for g in gpus:
                self.settle(g, now)
            # kernels that ran out of work
            for g in gpus:
                for op in [op for op, rem in running[g].items() if rem <= _EPS]:
                    self.finish_kernel(g, op, now)
            # every discrete event due now is popped before any is
            # handled, so what the handlers push waits for the next tick
            due = []
            while heap and heap[0][0] <= now + _EPS:
                due.append(heapq.heappop(heap))
            for time, _seq, handler, payload in due:
                handler(time, payload)
                if self.failure is not None:
                    return self.trace()  # fail-stop: the rest of the tick is discarded
        return self.trace()

    def trace(self) -> ExecutionTrace:
        # a failure cuts the trace at its instant; in-flight operators
        # keep their start time but have no finish
        failure = self.failure
        if failure is not None:
            latency = failure.time
        else:
            latency = max(self.op_finish.values(), default=0.0)
        return ExecutionTrace(
            latency=latency,
            op_launch=self.op_launch,
            op_start=self.op_start,
            op_finish=self.op_finish,
            transfers=self.fabric.records,
            gpu_busy=self.gpu_busy,
            failure=failure,
        )

    # ------------------------------------------------------------------
    # discrete events
    # ------------------------------------------------------------------
    def on_launch(self, time: float, op: str) -> None:
        """The host's launch call for ``op`` returned at ``time``."""
        self.op_launch[op] = time
        self.last_progress = self.now
        self.try_start(self.gpu_of[op], op, self.now)

    def on_arrival(self, time: float, consumer: str) -> None:
        """One of ``consumer``'s remote inputs was delivered."""
        self.last_progress = self.now
        self.remote_pending[consumer] -= 1
        if self.remote_pending[consumer] > 0:
            return
        g = self.gpu_of[consumer]
        if consumer in self.op_launch:
            # overlap_launch: it was launched while this input was out
            self.try_start(g, consumer, self.now)
        elif self.pending[g] and self.pending[g][0] == consumer:
            # the host was blocked on this operator's MPI_Recv
            self.advance_host(g, self.now)

    def on_slowdown(self, time: float, slow: GpuSlowdown) -> None:
        self.fault_speed[slow.gpu] *= slow.factor
        self.recompute_slowdown(slow.gpu)

    def on_failure(self, time: float, spec: GpuFailure) -> None:
        self.failure = FailureEvent(
            gpu=spec.gpu,
            time=self.now,
            finished=frozenset(self.op_finish),
            in_flight=frozenset(op for per_gpu in self.running for op in per_gpu),
        )

    # ------------------------------------------------------------------
    # hosts and kernels
    # ------------------------------------------------------------------
    def advance_host(self, g: int, t: float) -> None:
        """Issue launches for GPU ``g``'s active stage until its host
        blocks on an operator's remote input or runs out of operators.

        Only the head can block the host, and only in the blocking
        (CUDA-aware MPI) mode; :meth:`on_arrival` resumes the host when
        the head's last input lands.
        """
        cfg = self.cfg
        pending = self.pending[g]
        while pending:
            head = pending[0]
            if not cfg.overlap_launch and self.remote_pending[head] > 0:
                return
            pending.popleft()
            t_done = max(self.host_free[g], t) + cfg.launch_overhead_ms
            self.host_free[g] = t_done
            self.push(t_done, self.on_launch, head)

    def try_start(self, g: int, op: str, t: float) -> None:
        """Start ``op``'s kernel once it is launched, fed and stream-clear."""
        cfg = self.cfg
        if op in self.op_start or op not in self.op_launch:
            return
        if cfg.overlap_launch and self.remote_pending[op] > 0:
            return
        pred = self.stream_pred.get(op)
        if pred is not None and pred not in self.op_finish:
            return
        self.settle(g, t)
        self.op_start[op] = t
        cost = self.graph.cost(op)
        if cfg.launch_included_in_cost:
            cost = max(0.0, cost - cfg.launch_overhead_ms)
        self.running[g][op] = cost / self.speed[g]
        self.recompute_slowdown(g)

    def finish_kernel(self, g: int, op: str, t: float) -> None:
        self.last_progress = t
        del self.running[g][op]
        self.recompute_slowdown(g)
        self.op_finish[op] = t
        succ = self.stream_succ.get(op)
        if succ is not None:
            self.try_start(g, succ, t)
        self.send_outputs(g, op, t)
        # stage barrier: the next stage's launches wait for this one
        self.stage_remaining[g] -= 1
        if self.stage_remaining[g] == 0:
            nxt = next(self.later_stages[g], None)
            if nxt is not None:
                self.stage_remaining[g] = len(nxt)
                self.pending[g].extend(nxt.ops)
                self.advance_host(g, t)

    def send_outputs(self, g: int, op: str, t: float) -> None:
        """Post ``op``'s output to its remote consumers, in sorted order.

        Under ``send_blocking`` the host issues them one blocking
        MPI_Send at a time, so each send is posted only after the
        previous one delivered (the analytic evaluator's serialized
        sends), and the host launches nothing until the last delivery.
        """
        cfg = self.cfg
        graph = self.graph
        blocking = cfg.send_blocking and not cfg.overlap_launch
        cursor = t
        last_delivery = t
        for s in sorted(graph.successors(op)):
            gs = self.gpu_of[s]
            if gs == g:
                continue
            post_at = cursor if blocking else t
            delivery = self.fabric.post_send(
                post_at, g, gs, graph.transfer(op, s),
                num_bytes=graph.operator(op).output_bytes, tag=f"{op}->{s}",
            )
            self.push(delivery, self.on_arrival, s)
            cursor = delivery
            last_delivery = max(last_delivery, delivery)
        if blocking and last_delivery > t:
            self.host_free[g] = max(self.host_free[g], last_delivery)

    def recompute_slowdown(self, g: int) -> None:
        running = self.running[g]
        total = sum(self.graph.operator(op).occupancy for op in running)
        if total <= 1.0:
            base = 1.0
        else:
            base = total * (1.0 + self.cfg.contention_penalty * (total - 1.0))
        rate = base * (1.0 + self.cfg.stream_overhead * max(0, len(running) - 1))
        if self.fault_speed[g] != 1.0:
            rate /= self.fault_speed[g]
        self.slowdown[g] = rate

    def settle(self, g: int, t: float) -> None:
        """Account GPU ``g``'s execution progress up to ``t``."""
        dt = t - self.last_update[g]
        running = self.running[g]
        if dt > 0 and running:
            step = dt / self.slowdown[g]
            for op in running:
                running[op] -= step
            self.gpu_busy[g] += dt
        self.last_update[g] = t

    def stall_diagnostic(self) -> str:
        """Name who is stuck on what (deadlock / watchdog reports)."""
        parts: list[str] = []
        for g, pending in enumerate(self.pending):
            if pending:
                head = pending[0]
                need = self.remote_pending.get(head, 0)
                msg = f"GPU {g} host blocked on {head!r}"
                if need > 0:
                    msg += f" ({need} remote input(s) outstanding)"
                parts.append(msg)
        waiting = sorted(
            op
            for op in self.graph.names
            if op not in self.op_finish and self.remote_pending.get(op, 0) > 0
        )
        if waiting:
            shown = ", ".join(repr(op) for op in waiting[:8])
            if len(waiting) > 8:
                shown += f", ... ({len(waiting) - 8} more)"
            parts.append(f"operators awaiting remote data: {shown}")
        return "; ".join(parts) if parts else "no host is blocked"
