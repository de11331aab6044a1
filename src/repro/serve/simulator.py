"""The discrete-event serving loop.

One event heap drives the whole run, ordered by
``(time, priority, seq)``:

* **pool failures** (priority 0) — ``fail:G@T`` specs on the *pool*
  clock mark GPU ``G`` dead for everyone;
* **pool repairs** (priority 1) — ``repair:G@T`` specs return a dead
  GPU to service, *after* same-instant failures (a fail+repair tie
  leaves the GPU alive) and *before* same-instant outcomes and
  arrivals see the pool;
* **query outcomes** (priority 2) — a dispatched query (or batch)
  completes, aborts (transfer retry budget exhausted) or is displaced
  (its whole lease fail-stopped); the lease is released;
* **arrivals / re-admissions** (priority 3) — new requests enter
  admission control, retried requests re-enter the queue.

After every event the dispatcher drains the queue: highest priority
first (FIFO within a priority), leasing the ``gpus_per_query`` lowest
free GPUs — or, when the backlog exceeds ``overload_queue``, the
degraded lease size and algorithm.  Entries are inserted at their
place in that order, so the queue is always in dispatch order, and the
overload verdict is latched for the whole round.  With
``max_batch > 1`` the dispatcher merges queued same-model requests
into the leader's dispatch: one lease, one schedule, one execution,
per-member deadline accounting.  A request whose *predicted*
completion would miss its deadline is shed instead of dispatched.

Fault handling is **look-ahead at dispatch**: the pool's remaining
faults are projected onto the lease (pool GPU indices → lease-local
indices, pool clock → query clock) into a per-query
:class:`~repro.substrate.faults.FaultPlan`, and the query executes
under :func:`repro.core.repair.run_with_repair` with ``strict=False`` —
mid-flight GPU loss triggers cascading repair on the rest of the lease,
and only when the *whole* lease is gone does the query come back
displaced, to be re-admitted after a seeded backoff.  Each plan keeps
its fault-free trace: a dispatch whose projected faults cannot fire
before that trace ends replays it instead of running the engine again
(:meth:`ServeSimulator._replay`).

With ``elastic`` the loop additionally resizes *in-flight* leases
(:func:`repro.core.repair.resize_schedule`): when the queue is empty
and GPUs sit free — typically right after a ``repair:G@T`` — narrow
leases grow back toward ``gpus_per_query``; when an overloaded backlog
cannot dispatch, the widest lease shrinks to ``degraded_gpus``.  A
resize cuts the running segment at the current pool time, checkpoints
the operators finished by the cut, re-plans the remainder warm-started
from the old placement, and re-executes it on the new lease;
outcome events carry an epoch so a superseded segment's outcome is
ignored when it fires.

The state one run changes — pool, queue, event heap, in-flight
leases, busy time, counters — lives on a private run-state object
whose methods are the loop's handlers; :class:`ServeSimulator` keeps
only what outlives a run (config, fault plan, engine config, schedule
cache, plan memo), so a second :meth:`ServeSimulator.run` reuses the
plans of the first.

Everything — arrivals, placement, faults, backoff jitter — is a pure
function of the :class:`~repro.serve.config.ServeConfig`, so a run
replays bit-identically.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import time
from bisect import insort
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core.repair import RepairError, RepairResult, resize_schedule, run_with_repair
from ..core.schedule import Schedule
from ..costmodel.profile import CostProfile
from ..obs.declog import emit
from ..substrate.engine import (
    EngineConfig,
    ExecutionTrace,
    MultiGpuEngine,
    replays_fault_free,
)
from ..substrate.faults import (
    FaultError,
    FaultPlan,
    FaultSpec,
    GpuFailure,
    GpuSlowdown,
    LinkDegradation,
)
from ..sweep.schedcache import ScheduleCache, cached_schedule
from .arrivals import Request, build_arrivals
from .config import ServeConfig
from .pool import GpuPool
from .report import RequestRecord, ServeReport
from .zoo import MODEL_ZOO, zoo_profile

__all__ = ["ServeError", "ServeResult", "ServeSimulator", "serve"]

#: Algorithms that accept the sliding-window kwarg.
_WINDOW_ALGS = frozenset({"hios-lp", "hios-mr", "hios-lp-ls"})

# event priorities: pool failures reshape the world first, repairs heal
# it next (a same-instant fail+repair leaves the GPU alive), then
# outcomes release leases, and (re-)admissions see the settled pool
_PRIO_FAIL = 0
_PRIO_REPAIR = 1
_PRIO_OUTCOME = 2
_PRIO_ARRIVAL = 3


class ServeError(RuntimeError):
    """Raised when the serving loop reaches an inconsistent state."""


def _query_seed(seed: int, qid: str, attempt: int) -> int:
    """Stable per-(query, attempt) seed so retries redraw their losses."""
    digest = hashlib.sha256(f"{seed}:{qid}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Plan:
    """One memoized plan: a model's schedule at one lease width and algorithm.

    ``op_gpu`` maps every operator to its lease-local GPU.  ``trace`` is
    the plan's fault-free engine trace, filled by its first fault-free
    execution; segments whose projected faults cannot fire before it
    ends reuse it instead of re-running the engine.  Both are shared
    read-only by every segment that replays the plan.
    """

    profile: CostProfile
    schedule: Schedule
    predicted: float
    op_gpu: dict[str, int]
    trace: ExecutionTrace | None = None


@dataclass
class _QueueEntry:
    request: Request
    attempt: int = 1


def _queue_key(entry: _QueueEntry) -> tuple[int, float, str]:
    """Dispatch order: highest priority first, then FIFO, then by id.

    A total order — request ids are unique and a request is never
    queued twice — so inserting at this key gives the order a stable
    sort of the queue would.
    """
    req = entry.request
    return (-req.priority, req.arrival_ms, req.id)


@dataclass
class _InFlight:
    """State of one dispatched query (or merged batch) on its lease.

    ``epoch`` versions the pending outcome event: an elastic resize
    bumps it and pushes a fresh outcome, so the superseded event is
    recognized as stale when it fires.  ``trace`` / ``op_gpu`` describe
    the *current* segment on the query-local clock starting at
    ``segment_start_ms``; ``finished`` holds the operators checkpointed
    by earlier segments; ``repairs_done`` counts cascading-repair
    rounds that actually happened before a resize cut.
    """

    members: list[_QueueEntry]  # batch members, leader first
    lease: tuple[int, ...]
    model: str
    algorithm: str
    names: tuple[str, ...]  # full model operator names
    segment_start_ms: float
    pending: str = "complete"  # what the pushed outcome event says
    trace: ExecutionTrace | None = None
    seg_repairs: tuple[RepairResult, ...] = ()
    op_gpu: dict[str, int] = field(default_factory=dict)
    finished: frozenset[str] = frozenset()
    repairs_done: int = 0
    epoch: int = 0

    @property
    def leader(self) -> _QueueEntry:
        return self.members[0]

    @property
    def qid(self) -> str:
        return self.members[0].request.id


@dataclass(frozen=True)
class ServeResult:
    """Everything a serving run produced."""

    config: ServeConfig
    report: ServeReport
    records: tuple[RequestRecord, ...]

    def record_of(self, request_id: str) -> RequestRecord:
        for rec in self.records:
            if rec.id == request_id:
                return rec
        raise KeyError(request_id)


class ServeSimulator:
    """Runs one serving scenario; see the module docstring for the loop.

    ``sched_cache`` plugs in a persistent
    :class:`~repro.sweep.schedcache.ScheduleCache`: the in-memory
    ``_schedules`` memo becomes a read-through layer over it, so a
    restarted server warms its plans from disk instead of re-running
    the schedulers.  Repairs and elastic resizes warm-start from the
    running placement either way (see
    :func:`repro.core.repair.repair_schedule` and
    :func:`repro.core.repair.resize_schedule`).
    """

    def __init__(
        self, config: ServeConfig, sched_cache: ScheduleCache | None = None
    ) -> None:
        for t in config.tenants:
            if t.model not in MODEL_ZOO:
                raise ServeError(
                    f"tenant {t.name!r} serves unknown model {t.model!r}; "
                    f"the zoo has {sorted(MODEL_ZOO)}"
                )
        self.config = config
        self._sched_cache = sched_cache
        self._plan = FaultPlan.from_strings(config.faults, seed=config.seed)
        self._base_engine = EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.06,
        )
        # (model, lease size, algorithm) -> plan (schedule + fault-free
        # trace); memoized across runs (the zoo is small and leases
        # repeat; the persistent cache, when given, backs the memo
        # across restarts)
        self._schedules: dict[tuple[str, int, str], _Plan] = {}

    def run(self) -> ServeResult:
        """Serve the scenario once, from an empty pool and queue."""
        return _Run(self).drain()

    # ------------------------------------------------------------------
    def _alg_kwargs(self, algorithm: str) -> dict[str, Any]:
        if algorithm in _WINDOW_ALGS:
            return {"window": self.config.window}
        return {}

    def _query_plan(
        self, now: float, lease: tuple[int, ...], tag: str, attempt: int
    ) -> FaultPlan | None:
        """Project the pool's remaining faults onto ``lease``.

        Pool GPU indices map to lease-local indices and the pool clock
        re-anchors to the query clock starting at ``now``.  ``tag``
        keys the per-query loss seed (the request id, suffixed with the
        segment epoch after an elastic resize so re-planned segments
        redraw their losses deterministically).
        """
        specs: list[FaultSpec] = []
        local = {g: i for i, g in enumerate(lease)}
        for f in self._plan.failures():
            if f.gpu in local and f.at >= now:
                specs.append(GpuFailure(gpu=local[f.gpu], at=f.at - now))
        for s in self._plan.slowdowns():
            if s.gpu in local:
                specs.append(
                    GpuSlowdown(gpu=local[s.gpu], at=max(0.0, s.at - now), factor=s.factor)
                )
        for d in self._plan.degradations():
            if d.src in local and d.dst in local:
                specs.append(
                    LinkDegradation(
                        src=local[d.src],
                        dst=local[d.dst],
                        at=max(0.0, d.at - now),
                        bw_factor=d.bw_factor,
                    )
                )
        specs.extend(self._plan.losses())
        if not specs:
            return None
        return FaultPlan(specs, seed=_query_seed(self.config.seed, tag, attempt))

    def _replay(self, memo: _Plan, qplan: FaultPlan | None) -> ExecutionTrace | None:
        """``memo``'s fault-free trace, if ``qplan`` cannot fire before it ends.

        Leases are exclusive, so a segment's trace depends only on its
        graph, schedule, engine config and projected faults; when no
        projected fault can fire (:func:`~repro.substrate.engine.replays_fault_free`)
        the fault-free trace *is* the segment's trace.  The plan runs
        fault-free once per simulator, for the first segment whose
        projection could spare some trace: nothing projected, or only
        fail-stops not due at its start.
        """
        if memo.trace is None:
            if not replays_fault_free(qplan, 0.0):
                return None
            memo.trace = MultiGpuEngine(self._base_engine).run(
                memo.profile.graph, memo.schedule
            )
        if replays_fault_free(qplan, memo.trace.latency):
            return memo.trace
        return None


#: An event handler: ``handler(now, payload)``.
_Handler = Callable[[float, Any], None]


class _Run:
    """The state of one serving run; its methods are the loop's handlers.

    The event heap holds ``(time, priority, seq, handler, payload)``.
    :meth:`drain` pops each event and calls its handler, then lets the
    dispatcher — and, with ``elastic``, the resize pass — react.  There
    is one handler per event kind: :meth:`on_gpu_fail`,
    :meth:`on_gpu_repair`, :meth:`on_arrival`, :meth:`on_requeue`, and
    the three outcomes :meth:`on_complete`, :meth:`on_abort` and
    :meth:`on_displace`, which share their epoch check, release and
    busy-time fold (:meth:`settle`).
    """

    def __init__(self, sim: ServeSimulator) -> None:
        cfg = sim.config
        self.sim = sim
        self.cfg = cfg
        self.pool = GpuPool(cfg.num_gpus)
        requests = build_arrivals(cfg)
        self.records = {
            r.id: RequestRecord(
                id=r.id,
                tenant=r.tenant,
                model=r.model,
                priority=r.priority,
                arrival_ms=r.arrival_ms,
                deadline_ms=r.deadline_ms,
            )
            for r in requests
        }
        self.queue: list[_QueueEntry] = []  # always in _queue_key order
        self.heap: list[tuple[float, int, int, _Handler, Any]] = []
        self.seq = 0
        self.in_flight: dict[str, _InFlight] = {}
        self.gpu_busy: dict[int, float] = {}
        # counters the records cannot give back
        self.retries = 0
        self.degraded_dispatches = 0
        self.revived = 0
        self.elastic_grows = 0
        self.elastic_shrinks = 0
        # wall-clock scheduling cost (host time, not the simulated
        # clock) and schedule-cache traffic
        self.sched_s = 0.0
        self.sched_cache_hits = 0
        self.sched_cache_misses = 0
        self.warm_starts = 0
        for r in requests:
            self.push(r.arrival_ms, _PRIO_ARRIVAL, self.on_arrival, _QueueEntry(r))
        for f in sim._plan.failures():
            self.push(f.at, _PRIO_FAIL, self.on_gpu_fail, f.gpu)
        for rp in sim._plan.repairs():
            self.push(rp.at, _PRIO_REPAIR, self.on_gpu_repair, rp.gpu)

    def push(self, time: float, prio: int, handler: _Handler, payload: Any) -> None:
        heapq.heappush(self.heap, (time, prio, self.seq, handler, payload))
        self.seq += 1

    def drain(self) -> ServeResult:
        """Process every event, then score the run."""
        cfg = self.cfg
        heap = self.heap
        while heap:
            now, _prio, _seq, handler, payload = heapq.heappop(heap)
            handler(now, payload)
            self.dispatch(now)
            while cfg.elastic and self.elastic_pass(now):
                self.dispatch(now)

        for entry in self.queue:  # pragma: no cover - defensive (heap drained first)
            self.fail_request(cfg.horizon_ms, entry, "starved at end of run")

        records = list(self.records.values())
        report = ServeReport.from_records(
            records,
            retries=self.retries,
            degraded_dispatches=self.degraded_dispatches,
            gpu_busy_ms=self.gpu_busy,
            horizon_ms=cfg.horizon_ms,
            revived=self.revived,
            elastic_grows=self.elastic_grows,
            elastic_shrinks=self.elastic_shrinks,
            sched_ms=self.sched_s * 1000.0,
            sched_cache_hits=self.sched_cache_hits,
            sched_cache_misses=self.sched_cache_misses,
            warm_starts=self.warm_starts,
        )
        return ServeResult(config=cfg, report=report, records=tuple(records))

    # ------------------------------------------------------------------
    # pool and admission events
    # ------------------------------------------------------------------
    def on_gpu_fail(self, now: float, gpu: int) -> None:
        holder = self.pool.fail(gpu)
        emit("serve-gpu-fail", t=now, gpu=gpu, holder=holder)

    def on_gpu_repair(self, now: float, gpu: int) -> None:
        was_dead = self.pool.revive(gpu)
        if was_dead:
            self.revived += 1
        emit("serve-gpu-repair", t=now, gpu=gpu, revived=was_dead)

    def on_arrival(self, now: float, entry: _QueueEntry) -> None:
        req = entry.request
        if len(self.queue) >= self.cfg.queue_capacity:
            rec = self.records[req.id]
            rec.status = "shed-queue"
            rec.reason = f"queue full ({self.cfg.queue_capacity})"
            emit("serve-shed", t=now, request=req.id, reason="queue-full")
            return
        insort(self.queue, entry, key=_queue_key)
        emit("serve-admit", t=now, request=req.id, tenant=req.tenant, queued=len(self.queue))

    def on_requeue(self, now: float, entry: _QueueEntry) -> None:
        # re-admissions bypass the capacity check: the work was already
        # admitted once and should not be double-punished for a fault
        # that was not its fault
        req = entry.request
        insort(self.queue, entry, key=_queue_key)
        emit(
            "serve-admit",
            t=now,
            request=req.id,
            tenant=req.tenant,
            queued=len(self.queue),
            readmitted=True,
        )

    # ------------------------------------------------------------------
    # outcome events
    # ------------------------------------------------------------------
    def settle(self, now: float, qid: str, epoch: int) -> _InFlight | None:
        """Release ``qid``'s lease and fold its final segment's busy time.

        Returns ``None`` for the outcome of a segment an elastic resize
        superseded: the fresh outcome event, or the release itself,
        already happened.  Earlier segments folded their busy time at
        their resize cuts.

        Folding here, with or without ``elastic``, adds up each GPU's
        busy time in dispatch order: leases are exclusive, and a GPU
        that fails under a lease stays listed by it until it releases.
        """
        fl = self.in_flight.get(qid)
        if fl is None or fl.epoch != epoch:
            if not self.cfg.elastic:
                raise ServeError(f"outcome for {qid!r} without a lease")
            return None
        del self.in_flight[qid]
        self.pool.release(qid)
        for m in fl.members:
            self.records[m.request.id].released_ms = now
        if fl.trace is not None:
            gpu_busy = self.gpu_busy
            for g_local, busy in fl.trace.gpu_busy.items():
                gpu = fl.lease[g_local]
                gpu_busy[gpu] = gpu_busy.get(gpu, 0.0) + busy
        return fl

    def on_complete(self, now: float, payload: tuple[str, int, int]) -> None:
        qid, epoch, seg_repairs = payload
        fl = self.settle(now, qid, epoch)
        if fl is None:
            return
        num_repairs = fl.repairs_done + seg_repairs
        lead = self.records[qid]
        lead.repairs += num_repairs
        for m in fl.members:
            mrec = self.records[m.request.id]
            mrec.status = "completed"
            mrec.completed_ms = now
            mrec.latency_ms = now - mrec.arrival_ms
            mrec.deadline_met = now <= mrec.deadline_ms
        emit(
            "serve-complete",
            t=now,
            request=qid,
            latency_ms=lead.latency_ms,
            repairs=num_repairs,
            deadline_met=lead.deadline_met,
            batch=len(fl.members),
        )

    def on_abort(self, now: float, payload: tuple[str, int, str]) -> None:
        qid, epoch, reason = payload
        fl = self.settle(now, qid, epoch)
        if fl is None:
            return
        emit("serve-abort", t=now, request=qid, reason=reason)
        for m in fl.members:
            self.retry_or_fail(now, m, reason)

    def on_displace(self, now: float, payload: tuple[str, int, int]) -> None:
        """The whole lease fail-stopped: every member retries."""
        qid, epoch, seg_repairs = payload
        fl = self.settle(now, qid, epoch)
        if fl is None:
            return
        num_repairs = fl.repairs_done + seg_repairs
        self.records[qid].repairs += num_repairs
        for m in fl.members:
            self.records[m.request.id].displaced += 1
        emit(
            "serve-displaced",
            t=now,
            request=qid,
            gpus=list(fl.lease),
            repairs=num_repairs,
            batch=len(fl.members),
        )
        for m in fl.members:
            self.retry_or_fail(now, m, "lease lost to GPU failure")

    def fail_request(self, now: float, entry: _QueueEntry, reason: str) -> None:
        rec = self.records[entry.request.id]
        rec.status = "failed"
        rec.reason = reason
        emit("serve-fail", t=now, request=entry.request.id, reason=reason)

    def retry_or_fail(self, now: float, entry: _QueueEntry, reason: str) -> None:
        cfg = self.cfg
        if entry.attempt > cfg.max_retries:
            self.fail_request(now, entry, f"{reason}: retries exhausted")
            return
        ceiling = cfg.retry_backoff_ms * (2 ** (entry.attempt - 1))
        delay = ceiling
        if cfg.retry_jitter:
            rng = random.Random(f"{cfg.seed}:retry:{entry.request.id}:{entry.attempt}")
            delay = ceiling * rng.random()
        self.retries += 1
        emit(
            "serve-retry",
            t=now,
            request=entry.request.id,
            attempt=entry.attempt + 1,
            delay_ms=delay,
            reason=reason,
        )
        self.push(
            now + delay,
            _PRIO_ARRIVAL,
            self.on_requeue,
            _QueueEntry(entry.request, attempt=entry.attempt + 1),
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def planned(self, model: str, k: int, algorithm: str) -> _Plan:
        """The memoized plan of ``model`` on ``k`` GPUs, scheduled on first use."""
        sim = self.sim
        key = (model, k, algorithm)
        plan = sim._schedules.get(key)
        if plan is None:
            profile = zoo_profile(model, k)
            t0 = time.perf_counter()
            result, hit = cached_schedule(
                profile,
                algorithm,
                cache=sim._sched_cache,
                **sim._alg_kwargs(algorithm),
            )
            self.sched_s += time.perf_counter() - t0
            if hit:
                self.sched_cache_hits += 1
            else:
                self.sched_cache_misses += 1
            plan = _Plan(
                profile,
                result.schedule,
                result.latency,
                result.schedule.assignment(),
            )
            sim._schedules[key] = plan
        return plan

    def dispatch(self, now: float) -> None:
        """Lease GPUs to queued work, in queue order, until the pool runs short.

        The overload verdict is latched for the round, so a burst that
        starts degraded drains degraded instead of flipping mid-round.
        """
        queue = self.queue
        if not queue:
            return
        cfg = self.cfg
        pool = self.pool
        if pool.num_alive == 0:
            for entry in queue:
                self.fail_request(now, entry, "no GPUs left in the pool")
            queue.clear()
            return
        overloaded = len(queue) > cfg.overload_queue
        while queue:
            k = cfg.degraded_gpus if overloaded else cfg.gpus_per_query
            k = min(k, pool.num_alive)
            if pool.num_free < k:
                return
            entry = queue.pop(0)
            req = entry.request
            rec = self.records[req.id]
            algorithm = cfg.degraded_algorithm if overloaded else cfg.algorithm
            plan = self.planned(req.model, k, algorithm)
            predicted = plan.predicted
            if cfg.shed_late and now + predicted > req.deadline_ms:
                rec.status = "shed-deadline"
                rec.reason = (
                    f"predicted finish {now + predicted:.3f} ms past "
                    f"deadline {req.deadline_ms:.3f} ms"
                )
                emit(
                    "serve-shed",
                    t=now,
                    request=req.id,
                    reason="deadline",
                    predicted_ms=predicted,
                )
                continue
            # merge queued same-model requests into the leader's
            # dispatch; members predicted to miss their deadline are
            # left queued (they shed at their own dispatch)
            members = [entry]
            if cfg.max_batch > 1:
                i = 0
                while i < len(queue) and len(members) < cfg.max_batch:
                    cand = queue[i]
                    if cand.request.model == req.model and not (
                        cfg.shed_late and now + predicted > cand.request.deadline_ms
                    ):
                        members.append(queue.pop(i))
                    else:
                        i += 1
            lease = pool.lease(req.id, k)
            fl = _InFlight(
                members=members,
                lease=lease,
                model=req.model,
                algorithm=algorithm,
                names=plan.profile.graph.names,
                segment_start_ms=now,
            )
            self.in_flight[req.id] = fl
            for m in members:
                mrec = self.records[m.request.id]
                mrec.dispatched_ms = now
                mrec.gpus = lease
                mrec.algorithm = algorithm
                mrec.attempts += 1
                mrec.batch = len(members)
                mrec.batched_with = "" if m is entry else req.id
                if overloaded:
                    mrec.degraded = True
            if overloaded:
                self.degraded_dispatches += 1
            emit(
                "serve-dispatch",
                t=now,
                request=req.id,
                gpus=list(lease),
                algorithm=algorithm,
                degraded=overloaded,
                attempt=entry.attempt,
                predicted_ms=predicted,
                batch=len(members),
            )
            self.run_segment(
                now, fl, plan.profile, plan.schedule, plan.predicted, tag=fl.qid, memo=plan
            )

    def run_segment(
        self,
        now: float,
        fl: _InFlight,
        profile: CostProfile,
        schedule: Schedule,
        predicted: float,
        tag: str,
        memo: _Plan | None = None,
    ) -> None:
        """Execute one segment of ``fl`` and push its (epoch-tagged) outcome.

        The first segment runs the full model graph of the memoized
        plan ``memo``; post-resize segments run the unfinished subgraph
        re-planned by :func:`repro.core.repair.resize_schedule`.  Either
        way the pool's remaining faults are projected onto the current
        lease.  A first segment whose projected faults cannot fire
        before the plan's fault-free trace ends reuses that trace
        (:meth:`ServeSimulator._replay`); every other segment executes
        under cascading repair.
        """
        sim = self.sim
        qplan = sim._query_plan(now, fl.lease, tag, fl.leader.attempt)
        repairs: tuple[RepairResult, ...] = ()
        if memo is not None and (replay := sim._replay(memo, qplan)) is not None:
            trace, op_gpu = replay, memo.op_gpu
        else:
            engine_cfg = replace(sim._base_engine, faults=qplan)
            try:
                trace, repairs = run_with_repair(
                    profile,
                    schedule,
                    config=engine_cfg,
                    algorithm=fl.algorithm,
                    strict=False,
                    warm_start=True,
                    sched_cache=sim._sched_cache,
                    **sim._alg_kwargs(fl.algorithm),
                )
            except FaultError as exc:
                # transfer retry budget exhausted mid-run: the lease was held
                # for about the predicted duration before the abort surfaced
                fl.pending = "abort"
                fl.trace = None
                fl.seg_repairs = ()
                self.push(
                    now + predicted, _PRIO_OUTCOME, self.on_abort, (fl.qid, fl.epoch, str(exc))
                )
                return
            for r in repairs:
                self.sched_s += r.result.scheduling_time
                if r.warm_started:
                    self.warm_starts += 1
            op_gpu = schedule.assignment()
            for r in repairs:
                op_gpu.update(r.schedule.assignment())
        fl.trace = trace
        fl.seg_repairs = repairs
        fl.op_gpu = op_gpu
        if trace.unfinished_ops(profile.graph.names):
            if trace.failure is None:  # pragma: no cover - defensive
                raise ServeError(f"incomplete trace without failure for {fl.qid!r}")
            fl.pending = "displace"
            self.push(
                now + trace.failure.time,
                _PRIO_OUTCOME,
                self.on_displace,
                (fl.qid, fl.epoch, len(repairs)),
            )
            return
        fl.pending = "complete"
        self.push(
            now + trace.latency,
            _PRIO_OUTCOME,
            self.on_complete,
            (fl.qid, fl.epoch, len(repairs)),
        )

    # ------------------------------------------------------------------
    # elastic leases
    # ------------------------------------------------------------------
    def try_resize(self, now: float, fl: _InFlight, target: int) -> bool:
        """Cut ``fl``'s running segment and re-plan it at ``target`` GPUs.

        Returns ``False`` (leaving the query untouched) when there
        is nothing left to re-plan — the segment's remaining work
        all finished by the cut, or its trace is already doomed.
        """
        pool = self.pool
        if fl.pending != "complete" or fl.trace is None:
            return False
        live = tuple(g for g in fl.lease if g not in pool.dead)
        if not live or target == len(live):
            return False
        cut = now - fl.segment_start_ms
        # in trace order, so the busy-time sum below does not depend
        # on string hashing
        seg_done = [op for op, t in fl.trace.op_finish.items() if t <= cut]
        finished = fl.finished.union(seg_done)
        if len(finished) >= len(fl.names):
            return False  # effectively done; let the outcome fire
        grow = target > len(live)
        if grow:
            extra = sorted(pool.free)[: target - len(live)]
            new_lease = tuple(sorted(live + tuple(extra)))
        else:
            new_lease = live[:target]
        # fold the head's busy time now: only work finished by the
        # cut happened (the superseded tail never runs)
        gpu_busy = self.gpu_busy
        for op in seg_done:
            g_local = fl.op_gpu.get(op)
            if g_local is None or g_local >= len(fl.lease):
                continue
            gpu = fl.lease[g_local]
            gpu_busy[gpu] = gpu_busy.get(gpu, 0.0) + (
                fl.trace.op_finish[op] - fl.trace.op_start[op]
            )
        fl.repairs_done += sum(1 for r in fl.seg_repairs if r.failure.time <= cut)
        old_lease = fl.lease
        slot_map = {
            old_lease.index(g): new_lease.index(g) for g in old_lease if g in new_lease
        }
        profile = zoo_profile(fl.model, len(new_lease))
        sim = self.sim
        t0 = time.perf_counter()
        try:
            rr = resize_schedule(
                profile,
                finished,
                prev_assignment=dict(fl.op_gpu),
                slot_map=slot_map,
                algorithm=fl.algorithm,
                sched_cache=sim._sched_cache,
                **sim._alg_kwargs(fl.algorithm),
            )
        except RepairError:  # pragma: no cover - guarded above
            return False
        finally:
            self.sched_s += time.perf_counter() - t0
        if rr.warm_started:
            self.warm_starts += 1
        pool.resize(fl.qid, new_lease)
        fl.lease = new_lease
        fl.finished = finished
        fl.segment_start_ms = now
        fl.epoch += 1
        for m in fl.members:
            self.records[m.request.id].gpus = new_lease
        self.records[fl.qid].resizes += 1
        emit(
            "serve-resize",
            t=now,
            request=fl.qid,
            gpus=list(new_lease),
            grow=grow,
            remaining_ops=len(fl.names) - len(finished),
            predicted_ms=rr.predicted_tail_latency,
        )
        self.run_segment(
            now,
            fl,
            rr.subprofile,
            rr.schedule,
            rr.predicted_tail_latency,
            tag=f"{fl.qid}/e{fl.epoch}",
        )
        return True

    def elastic_pass(self, now: float) -> bool:
        """One elastic action, counted; the caller re-dispatches after each.

        Grows fire when free GPUs cannot serve queued work anyway —
        the queue is empty, or it is (non-overloaded) blocked on a
        full-width lease the free set cannot cover; shrinks fire
        only when an overloaded backlog cannot lease even a
        degraded slot.  Each success strictly widens or narrows
        one lease, so the caller's drain loop terminates.
        """
        cfg = self.cfg
        pool = self.pool
        queue = self.queue
        in_flight = self.in_flight
        grow_ok = pool.num_free > 0 and (
            not queue
            or (
                len(queue) <= cfg.overload_queue
                and pool.num_free < min(cfg.gpus_per_query, pool.num_alive)
            )
        )
        if grow_ok:
            for qid in sorted(in_flight):
                fl = in_flight[qid]
                live = [g for g in fl.lease if g not in pool.dead]
                target = min(cfg.gpus_per_query, len(live) + pool.num_free)
                if target > len(live) and self.try_resize(now, fl, target):
                    self.elastic_grows += 1
                    return True
        if len(queue) > cfg.overload_queue:
            k = min(cfg.degraded_gpus, pool.num_alive)
            if 1 <= k and pool.num_free < k:
                # widest lease first, ties by request id
                for _, qid in sorted((-len(f.lease), q) for q, f in in_flight.items()):
                    fl = in_flight[qid]
                    live = [g for g in fl.lease if g not in pool.dead]
                    if len(live) > cfg.degraded_gpus and self.try_resize(
                        now, fl, cfg.degraded_gpus
                    ):
                        self.elastic_shrinks += 1
                        return True
        return False


def serve(
    config: ServeConfig, sched_cache: ScheduleCache | None = None
) -> ServeResult:
    """Run one serving scenario (the one-call entry point)."""
    return ServeSimulator(config, sched_cache=sched_cache).run()
