"""Intra-GPU inter-operator parallelization — Alg. 2 (``parallelize``).

Slide a window along each GPU's execution order in descending priority
order.  For every window size ``2 <= p+1 <= w`` the windowed operators
are tentatively grouped into one stage (one CUDA stream each); the
grouping is kept when

* the operators are pairwise independent,
* merging them into a single vertex keeps the stage graph acyclic
  (implicit cross-GPU dependencies, Section IV-B), and
* rescheduling every stage at its earliest start — without changing
  per-GPU execution order — strictly lowers the end-to-end latency.

One :class:`~repro.core.fasteval.StageGraphEvaluator` serves the whole
sweep.  It prices a candidate over only the merged stage and the stages
downstream of it and applies an accepted merge in place, as
``parallelize`` does to its own per-GPU stage lists: the
:class:`~repro.core.schedule.Schedule` is built once, at the end.  Before that
it rejects as slower, without pricing the downstream stages, every
acyclic candidate that touches no stage of the committed critical path,
and every one whose merged stage alone delays the next stage of that
path — neither merge can shorten the path.  The decision log names the
reason of each such skip.

The stage duration of a group comes from the profile's concurrency
model ``t(S)``, which is where under-utilization (small operators gain)
versus contention (saturating operators lose) enters the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..costmodel.profile import CostProfile
from ..obs import declog
from .fasteval import EvalCounters, StageGraphEvaluator
from .schedule import Schedule, ScheduleError, Stage

__all__ = ["IntraGpuStats", "parallelize"]


@dataclass
class IntraGpuStats:
    """Counters for one ``parallelize`` run, and ``initial_latency``,
    the latency of the schedule it started from (its first evaluation)."""

    initial_latency: float = 0.0
    windows_tried: int = 0
    groups_formed: int = 0
    rejected_dependent: int = 0
    rejected_cyclic: int = 0
    rejected_slower: int = 0


def parallelize(
    profile: CostProfile,
    schedule: Schedule,
    window: int = 3,
    priority: list[str] | None = None,
    validate: bool = True,
    counters: EvalCounters | None = None,
) -> tuple[Schedule, float, IntraGpuStats]:
    """Run Alg. 2 on ``schedule`` and return (schedule', latency, stats).

    ``window`` is the preset maximum window size ``w`` (the paper's
    walked example uses ``w = 2``; the default 3 matches the moderate
    stage widths profiled feasible on one GPU).  ``priority`` overrides
    the traversal order (descending priority indicators by default).

    ``validate=False`` skips the entry validation — for internal
    callers whose schedule is valid by construction or just validated
    (the ``HIOS_DEBUG_LINT=1`` self-check still lints the final one).
    The evaluator is looked up as ``StageGraphEvaluator`` in this
    module at call time, so ``tests/oracles`` can swap in its
    from-scratch stand-in.
    """
    if window < 1:
        raise ValueError("window size must be >= 1")
    from .priority import priority_order  # local import avoids cycle at module load

    graph = profile.graph
    if validate:
        schedule.validate(graph)
    order = priority if priority is not None else priority_order(graph)
    stats = IntraGpuStats()
    log = declog.active()
    evaluator = StageGraphEvaluator(profile, schedule, counters=counters)
    best_latency = stats.initial_latency = evaluator.evaluate()
    # the stage lists accepted merges are committed into, and where
    # each operator sits in them: op -> (gpu, stage position)
    per_gpu = [schedule.stages_on(g) for g in range(schedule.num_gpus)]
    placement = {
        op: (gpu, pos)
        for gpu, stages in enumerate(per_gpu)
        for pos, st in enumerate(stages)
        for op in st.ops
    }

    # The paper iterates i = 1 .. n-1: under HIOS's own schedules the
    # last-priority operator is last on its GPU and heads no window.
    # We iterate over every operator so externally supplied schedules
    # (whose per-GPU order may differ from priority order) are swept
    # fully; the extra iteration is a no-op in the HIOS case.
    for v in order:
        if v not in placement:
            raise ScheduleError(f"operator {v!r} missing from schedule")
        gpu, pos = placement[v]
        stages = per_gpu[gpu]
        if len(stages[pos]) > 1:
            continue  # already grouped in an earlier window

        # Collect the operators following v on this GPU while their
        # stages are still singletons — the sliding window may only
        # extend over ungrouped operators.
        followers: list[str] = []
        for st in stages[pos + 1 :]:
            if len(st) > 1:
                break
            followers.append(st.ops[0])
            if len(followers) >= window - 1:
                break

        best_candidate: tuple[float, int] | None = None
        for p in range(1, window):
            if p > len(followers):
                break
            group = (v, *followers[:p])
            if profile.max_streams and len(group) > profile.max_streams:
                break
            stats.windows_tried += 1
            if not graph.independent(group):
                stats.rejected_dependent += 1
                if log is not None:
                    log.emit(
                        "window", gpu=gpu, ops=list(group),
                        outcome="rejected-dependent",
                    )
                continue
            skip = evaluator.skip_reason(gpu, pos, p, group)
            if skip is not None:
                stats.rejected_slower += 1
                if log is not None:
                    log.emit(
                        "window", gpu=gpu, ops=list(group),
                        outcome="rejected-slower",
                        best_latency_ms=best_latency, priced=False, skip=skip,
                    )
                continue
            lat = evaluator.try_merge(gpu, pos, p, group)
            if lat is None:
                stats.rejected_cyclic += 1
                if log is not None:
                    log.emit(
                        "window", gpu=gpu, ops=list(group),
                        outcome="rejected-cyclic",
                    )
                continue
            if lat < best_latency and (
                best_candidate is None or lat < best_candidate[0]
            ):
                best_candidate = (lat, p)
                if log is not None:
                    log.emit(
                        "window", gpu=gpu, ops=list(group), outcome="improves",
                        latency_ms=lat, best_latency_ms=best_latency,
                    )
            elif lat >= best_latency:
                stats.rejected_slower += 1
                if log is not None:
                    log.emit(
                        "window", gpu=gpu, ops=list(group),
                        outcome="rejected-slower",
                        latency_ms=lat, best_latency_ms=best_latency,
                    )

        if best_candidate is not None:
            best_latency, best_p = best_candidate
            group = (v, *followers[:best_p])
            stages[pos : pos + 1 + best_p] = [Stage(gpu, group)]
            for at in range(pos, len(stages)):
                for op in stages[at].ops:
                    placement[op] = (gpu, at)
            stats.groups_formed += 1
            if log is not None:
                log.emit(
                    "window-merge", gpu=gpu, ops=list(group),
                    outcome="accepted", latency_ms=best_latency,
                )
            evaluator.commit(gpu, pos, best_p, group)

    if stats.groups_formed:
        schedule = Schedule(schedule.num_gpus, [st for stages in per_gpu for st in stages])
    return schedule, best_latency, stats
