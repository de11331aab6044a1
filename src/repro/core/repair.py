"""Degraded-mode schedule repair after a GPU failure.

When the engine fail-stops on an injected
:class:`~repro.substrate.faults.GpuFailure`, the run hands back a
:class:`~repro.substrate.faults.FailureEvent`: which operators finished
(their outputs survive on the host) and which were in flight (their
progress is lost).  :func:`repair_schedule` re-schedules the unfinished
subgraph onto the surviving GPUs with any registered algorithm — by
default HIOS-LP, i.e. the full list-scheduling + ``parallelize()``
machinery running in degraded mode — and :func:`splice_traces` glues
the partial pre-failure trace and the repaired tail into one combined
:class:`~repro.substrate.engine.ExecutionTrace`.

Model assumptions (kept deliberately simple, see DESIGN.md):

* fail-stop with host checkpointing — finished operators never
  re-execute, their outputs are re-staged to the survivors for free
  during failover;
* in-flight operators on *any* GPU restart from scratch (the global
  cut keeps the hand-off state consistent);
* the repaired tail faces the *remaining* fault plan
  (:meth:`~repro.substrate.faults.FaultPlan.resume_after`): failures
  that have not fired yet can strike the tail too, and
  :func:`run_with_repair` keeps repairing — head, repair, tail, repair,
  ... — until a tail runs clean or no survivor is left (cascading
  failures, generalizing the original single-failure model).

The substrate imports :mod:`repro.core`, so everything engine-facing
here is imported lazily inside the functions that need it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..costmodel.profile import CostProfile
from .debuglint import debug_lint_schedule
from .graph import OpGraph
from .result import ScheduleResult
from .schedule import Schedule, Stage

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..substrate.engine import EngineConfig, ExecutionTrace
    from ..substrate.faults import FailureEvent
    from ..sweep.schedcache import ScheduleCache

__all__ = [
    "RepairError",
    "RepairResult",
    "ResizeResult",
    "repair_schedule",
    "resize_schedule",
    "run_with_repair",
    "splice_traces",
]

#: A warm-started repair whose latency exceeds this multiple of the
#: analytic lower bound is double-checked against a cold run (the
#: cheaper of the two wins).  Within the margin the warm schedule is
#: provably close enough to optimal that the cold run cannot beat it
#: by much — skipping it is the whole point of warm-starting.
WARM_START_MARGIN = 1.5


class RepairError(RuntimeError):
    """Raised when a failed run cannot be repaired (no survivors, ...)."""


@dataclass(frozen=True)
class RepairResult:
    """Outcome of re-scheduling the unfinished subgraph.

    ``schedule`` uses the *original* GPU indices (the failed GPU hosts
    nothing); ``result`` is the raw scheduler output on the compacted
    survivor indices, kept for its latency prediction and stats.
    ``warm_started`` records whether the spatial mapping was seeded
    from the pre-failure schedule instead of recomputed from scratch.
    """

    failure: "FailureEvent"
    survivors: tuple[int, ...]
    subgraph: OpGraph
    schedule: Schedule
    result: ScheduleResult
    warm_started: bool = False

    @property
    def algorithm(self) -> str:
        return self.result.algorithm

    @property
    def predicted_tail_latency(self) -> float:
        return self.result.latency


def _surviving_gpus(
    num_gpus: int, failure: "FailureEvent", dead: tuple[int, ...] = ()
) -> tuple[int, ...]:
    if not (0 <= failure.gpu < num_gpus):
        raise RepairError(
            f"failure names GPU {failure.gpu} but the profile has "
            f"{num_gpus} GPU(s)"
        )
    gone = set(dead) | {failure.gpu}
    survivors = tuple(g for g in range(num_gpus) if g not in gone)
    if not survivors:
        raise RepairError("no surviving GPU to repair onto")
    return survivors


def _subprofile(
    profile: CostProfile, remaining: Sequence[str], gpus: Sequence[int]
) -> CostProfile:
    """The cost profile of ``remaining``'s induced subgraph on ``gpus``.

    ``gpus`` are indices into ``profile``'s GPUs; the subprofile numbers
    them ``0 .. len(gpus) - 1`` in that order.
    """
    speeds = None
    if profile.gpu_speeds is not None:
        speeds = tuple(profile.gpu_speeds[g] for g in gpus)
    return CostProfile(
        graph=profile.graph.subgraph(remaining),
        concurrency=profile.concurrency,
        num_gpus=len(gpus),
        max_streams=profile.max_streams,
        send_blocking=profile.send_blocking,
        gpu_speeds=speeds,
    )


def _spatial_seed(
    subgraph: OpGraph,
    prev_assignment: dict[str, int],
    slot_map: dict[int, int],
    new_width: int,
) -> dict[str, int] | None:
    """Project ``prev_assignment`` through ``slot_map`` onto the new width.

    Remaining operators on a kept GPU follow it to its new slot;
    operators on dropped (or dead) GPUs are re-homed greedily onto the
    least-loaded new slot.  Returns ``None`` when ``prev_assignment``
    does not cover the subgraph or maps outside the new width.
    """
    assignment: dict[str, int] = {}
    stranded: list[str] = []
    for v in subgraph.names:
        g = prev_assignment.get(v)
        if g is None:
            return None
        slot = slot_map.get(g)
        if slot is None:
            stranded.append(v)
        elif not (0 <= slot < new_width):
            return None
        else:
            assignment[v] = slot
    load = [0.0] * new_width
    for v, i in assignment.items():
        load[i] += subgraph.cost(v)
    for v in sorted(stranded):
        i = min(range(new_width), key=lambda j: (load[j], j))
        assignment[v] = i
        load[i] += subgraph.cost(v)
    return assignment


def _plan_subgraph(
    subprofile: CostProfile,
    subgraph: OpGraph,
    seed_assignment: dict[str, int] | None,
    algorithm: str,
    sched_cache: "ScheduleCache | None",
    **kwargs: Any,
) -> tuple[ScheduleResult, bool]:
    """Schedule ``subgraph`` on ``subprofile``, warm-started when possible.

    ``seed_assignment`` (op -> compacted GPU index) primes the
    scheduler's spatial mapping through the ``spatial_cache`` seam; the
    warm schedule is kept when its latency is within
    :data:`WARM_START_MARGIN` of the analytic lower bound, otherwise a
    cold run is computed too and the cheaper of the two wins.  Cold
    runs are served from ``sched_cache`` when one is given; warm
    results are never persisted (they are seeded by run-specific
    state).  Returns ``(result, warm_started)``.
    """
    from .api import schedule_graph  # local: avoids a cycle
    from .bounds import latency_lower_bound
    from .priority import priority_order

    def cold_schedule() -> ScheduleResult:
        if sched_cache is not None:
            from ..sweep.schedcache import cached_schedule  # local: sweep is optional here

            cold, _hit = cached_schedule(
                subprofile, algorithm, cache=sched_cache, **kwargs
            )
            return cold
        return schedule_graph(subprofile, algorithm, **kwargs)

    if seed_assignment is None:
        return cold_schedule(), False
    order = priority_order(subgraph)
    spatial_cache: dict[str, Any] = {  # one SpatialMapping per family
        "lp": (seed_assignment, order, {"paths": 0}),
        "mr": (seed_assignment, order, {}),
    }
    warm = schedule_graph(subprofile, algorithm, spatial_cache=spatial_cache, **kwargs)
    if warm.latency <= WARM_START_MARGIN * latency_lower_bound(subprofile):
        return warm, True
    cold = cold_schedule()
    if warm.latency <= cold.latency:
        return warm, True
    return cold, False


def repair_schedule(
    profile: CostProfile,
    failure: "FailureEvent",
    algorithm: str = "hios-lp",
    dead: tuple[int, ...] = (),
    warm_start_from: Schedule | None = None,
    sched_cache: "ScheduleCache | None" = None,
    **kwargs: Any,
) -> RepairResult:
    """Re-schedule the unfinished subgraph onto the surviving GPUs.

    ``algorithm`` accepts any :data:`repro.core.api.ALGORITHMS` name and
    ``kwargs`` are forwarded to it, mirroring ``schedule_graph``; the
    default runs HIOS-LP in degraded mode.  ``dead`` names GPUs lost in
    *earlier* failures of a cascade — they are excluded from the
    survivor set along with ``failure.gpu``.  Edges from finished
    producers are dropped (their tensors are host-checkpointed and
    re-staged during failover), making their consumers sources of the
    repair subgraph.

    ``warm_start_from`` seeds the scheduler's spatial mapping from the
    surviving-GPU projection of the pre-failure schedule (through the
    ``spatial_cache`` seam), skipping the expensive Alg. 1/3 phase —
    the usual case where the survivors keep their operators and only
    the dead GPU's share moves.  The warm schedule is kept when its
    latency is within :data:`WARM_START_MARGIN` of the analytic lower
    bound; otherwise a cold run is computed too and the better of the
    two wins.  ``sched_cache`` serves *cold* repairs from the
    persistent schedule cache (warm-started results are seeded by a
    run-specific schedule and are never persisted).
    """
    from .api import algorithm_options  # local: avoids a cycle

    remaining = failure.unfinished(profile.graph.names)
    if not remaining:
        raise RepairError("nothing to repair: every operator already finished")
    survivors = _surviving_gpus(profile.num_gpus, failure, dead)

    subprofile = _subprofile(profile, remaining, survivors)
    subgraph = subprofile.graph

    seed: dict[str, int] | None = None
    if warm_start_from is not None and "spatial_cache" in algorithm_options(algorithm):
        slot_map = {g: i for i, g in enumerate(survivors)}
        seed = _spatial_seed(subgraph, warm_start_from.assignment(), slot_map, len(survivors))
    result, warm_started = _plan_subgraph(
        subprofile, subgraph, seed, algorithm, sched_cache, **kwargs
    )

    # map the compacted survivor indices back to the original GPU ids
    repaired = Schedule(profile.num_gpus)
    for idx, gpu in enumerate(survivors):
        for st in result.schedule.stages_on(idx):
            repaired.append_stage(Stage(gpu, st.ops))
    debug_lint_schedule(subgraph, repaired, algorithm=f"repair/{algorithm}")
    return RepairResult(
        failure=failure,
        survivors=survivors,
        subgraph=subgraph,
        schedule=repaired,
        result=result,
        warm_started=warm_started,
    )


@dataclass(frozen=True)
class ResizeResult:
    """Outcome of re-scheduling an in-flight query onto a new lease width.

    Unlike :class:`RepairResult`, the schedule lives in the *new* lease's
    local index space (``0 .. profile.num_gpus - 1``) — the caller owns
    the lease-local → pool mapping.  ``warm_started`` records whether the
    spatial mapping was projected from the pre-resize schedule.
    """

    subgraph: OpGraph
    subprofile: CostProfile
    schedule: Schedule
    result: ScheduleResult
    warm_started: bool = False

    @property
    def predicted_tail_latency(self) -> float:
        return self.result.latency


def resize_schedule(
    profile: CostProfile,
    finished: frozenset[str] | set[str],
    prev_assignment: dict[str, int] | None = None,
    slot_map: dict[int, int] | None = None,
    algorithm: str = "hios-lp",
    sched_cache: "ScheduleCache | None" = None,
    **kwargs: Any,
) -> ResizeResult:
    """Re-schedule the unfinished operators onto an elastically resized lease.

    ``profile`` is the model's cost profile *at the new lease width*
    (``profile.num_gpus`` GPUs); ``finished`` names the operators whose
    outputs already live on the host checkpoint and never re-execute.
    ``prev_assignment`` maps operators to the old lease-local GPU they
    were running on before the resize and ``slot_map`` maps old
    lease-local indices to new ones for the GPUs kept across the
    resize; together they seed the scheduler's spatial mapping through
    the same warm-start seam as :func:`repair_schedule` — operators on
    kept GPUs stay put, operators on dropped GPUs are re-homed onto the
    least-loaded slot.  Cold runs are served from ``sched_cache``.
    """
    from .api import algorithm_options  # local: avoids a cycle

    remaining = tuple(v for v in profile.graph.names if v not in finished)
    if not remaining:
        raise RepairError("nothing to resize: every operator already finished")
    subprofile = _subprofile(profile, remaining, range(profile.num_gpus))
    subgraph = subprofile.graph

    seed: dict[str, int] | None = None
    if prev_assignment is not None and "spatial_cache" in algorithm_options(algorithm):
        seed = _spatial_seed(subgraph, prev_assignment, slot_map or {}, profile.num_gpus)
    result, warm_started = _plan_subgraph(
        subprofile, subgraph, seed, algorithm, sched_cache, **kwargs
    )
    debug_lint_schedule(subgraph, result.schedule, algorithm=f"resize/{algorithm}")
    return ResizeResult(
        subgraph=subgraph,
        subprofile=subprofile,
        schedule=result.schedule,
        result=result,
        warm_started=warm_started,
    )


def splice_traces(head: "ExecutionTrace", tail: "ExecutionTrace") -> "ExecutionTrace":
    """Combine a failed partial trace with its repaired tail.

    The tail's clock starts at zero; every tail timestamp is shifted by
    the head's failure time.  Finished head operators keep their
    pre-failure times, everything else takes the tail's.

    The tail may itself be *partial* (a later failure of the cascade):
    the combined trace then carries the tail's failure shifted onto the
    head clock, with the finished sets merged — so cascades splice
    associatively, ``splice(splice(a, b), c) == splice(a, splice(b, c))``,
    and :func:`run_with_repair` can left-fold one segment at a time.
    When the tail ran clean the combined trace keeps the head's
    ``failure`` marker so callers can tell a repaired run from a clean
    one (use :meth:`~repro.substrate.engine.ExecutionTrace.unfinished_ops`
    to tell "fully repaired" from "gave up mid-cascade").
    """
    from ..substrate.engine import ExecutionTrace  # local import avoids a cycle
    from ..substrate.faults import FailureEvent  # local import avoids a cycle

    if head.failure is None:
        raise RepairError("head trace did not fail; nothing to splice")
    at = head.failure.time
    done = head.failure.finished

    op_launch = {op: t for op, t in head.op_launch.items() if op in done}
    op_start = {op: t for op, t in head.op_start.items() if op in done}
    op_finish = {op: t for op, t in head.op_finish.items() if op in done}
    for op, t in tail.op_launch.items():
        op_launch[op] = t + at
    for op, t in tail.op_start.items():
        op_start[op] = t + at
    for op, t in tail.op_finish.items():
        op_finish[op] = t + at

    transfers = list(head.transfers) + [
        replace(
            rec,
            post_time=rec.post_time + at,
            start_time=rec.start_time + at,
            finish_time=rec.finish_time + at,
        )
        for rec in tail.transfers
    ]
    gpu_busy = dict(head.gpu_busy)
    for g, busy in tail.gpu_busy.items():
        gpu_busy[g] = gpu_busy.get(g, 0.0) + busy
    if tail.failure is None:
        failure = head.failure
    else:
        failure = FailureEvent(
            gpu=tail.failure.gpu,
            time=at + tail.failure.time,
            finished=done | tail.failure.finished,
            in_flight=tail.failure.in_flight,
        )
    return ExecutionTrace(
        latency=at + tail.latency,
        op_launch=op_launch,
        op_start=op_start,
        op_finish=op_finish,
        transfers=transfers,
        gpu_busy=gpu_busy,
        failure=failure,
    )


def run_with_repair(
    profile: CostProfile,
    schedule: Schedule,
    config: "EngineConfig | None" = None,
    algorithm: str = "hios-lp",
    max_repairs: int | None = None,
    strict: bool = True,
    warm_start: bool = False,
    sched_cache: "ScheduleCache | None" = None,
    **kwargs: Any,
) -> "tuple[ExecutionTrace, tuple[RepairResult, ...]]":
    """Execute ``schedule`` under ``config``; on GPU failures, keep
    repairing onto the survivors until a tail runs clean.

    Returns ``(trace, repairs)``: a clean run returns its trace and an
    empty tuple; a failed run returns the spliced trace of every
    segment plus one :class:`RepairResult` per repair round, in order.

    This generalizes the original single-failure contract (which
    stripped *all* faults from the tail and returned at most one
    repair): each tail now executes under
    :meth:`~repro.substrate.faults.FaultPlan.resume_after` — the
    original plan re-anchored to the tail clock with the dead GPU's
    specs dropped — so later failures strike the tail and trigger
    further repair rounds (*cascading repair*).  The loop ends when a
    tail completes, every operator turns out to have finished before
    the cut, ``max_repairs`` rounds are exhausted, or no survivor is
    left.  In the last two cases ``strict=True`` (default) raises
    :class:`RepairError`; ``strict=False`` instead returns the partial
    spliced trace — its ``failure`` marker set and
    ``trace.unfinished_ops(...)`` non-empty — so online callers (the
    serving simulator) can re-admit the displaced work elsewhere.

    ``warm_start=True`` seeds each repair round's spatial mapping from
    the schedule the failed segment was running (the original schedule
    for the first round, the previous repair for later rounds of a
    cascade); ``sched_cache`` forwards a persistent schedule cache for
    cold repairs.  See :func:`repair_schedule`.
    """
    from ..substrate.engine import MultiGpuEngine  # local import avoids a cycle

    engine = MultiGpuEngine(config)
    cfg = engine.config
    trace = engine.run(profile.graph, schedule)
    repairs: list[RepairResult] = []
    dead: list[int] = []
    # a spliced trace keeps its failure marker even once fully repaired,
    # so the loop keys on completeness, not on the marker
    while trace.failure is not None and trace.unfinished_ops(profile.graph.names):
        failure = trace.failure
        if max_repairs is not None and len(repairs) >= max_repairs:
            if strict:
                raise RepairError(
                    f"repair budget exhausted: {len(repairs)} round(s) done "
                    f"and GPU {failure.gpu} failed again at t={failure.time:.3f}"
                )
            break
        previous = repairs[-1].schedule if repairs else schedule
        try:
            repair = repair_schedule(
                profile,
                failure,
                algorithm=algorithm,
                dead=tuple(dead),
                warm_start_from=previous if warm_start else None,
                sched_cache=sched_cache,
                **kwargs,
            )
        except RepairError:
            if strict:
                raise
            break
        dead.append(failure.gpu)
        plan = cfg.faults.resume_after(failure.time, dead=dead) if cfg.faults else None
        tail_engine = MultiGpuEngine(replace(cfg, faults=plan if plan else None))
        tail = tail_engine.run(repair.subgraph, repair.schedule)
        repairs.append(repair)
        trace = splice_traces(trace, tail)
    return trace, tuple(repairs)
