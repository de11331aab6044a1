"""Schedule latency evaluation (the Section III-A timing semantics).

Stages on one GPU execute sequentially; a stage may start only when

* the previous stage of the same GPU has finished (including, under
  the default sender-blocking communication model, the serialized
  outgoing transfers of that stage — the MPI process issues blocking
  sends between kernel launches), and
* for every edge ``(u, v)`` with ``v`` in the stage, the stage holding
  ``u`` has finished — plus the transfer completion time when ``u``
  and ``v`` live on different GPUs (the precedence constraint of
  Section III-B).

The stage duration is ``t(S)`` from the cost profile's concurrency
model.  The end-to-end latency is the maximum completion time (stage
finishes and, under sender blocking, trailing sends).  This evaluator
is the analytic objective the schedulers optimize; the discrete-event
engine in :mod:`repro.substrate.engine` provides the "real system"
measurement with launch overheads and eager starts.

Both entry points are views over the one stage DP,
:class:`repro.core.fasteval.StageGraphEvaluator`, which the Alg. 2
window sweep also prices its candidates with.  The differential tests
in ``tests/core/test_fasteval.py`` hold it to exact float equality with
the from-scratch reference in ``tests/oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..costmodel.profile import CostProfile
from .fasteval import StageGraphEvaluator, soa_latency
from .schedule import Schedule, Stage

__all__ = ["StageTiming", "EvaluationResult", "evaluate_schedule", "evaluate_latency"]


@dataclass(frozen=True)
class StageTiming:
    """Timing of one stage in an evaluated schedule."""

    stage: Stage
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class EvaluationResult:
    """Full timing of a schedule.

    ``latency`` is the makespan (including trailing sends under the
    sender-blocking model); ``stage_timings`` are ordered GPU by GPU,
    stage by stage; ``op_start`` maps each operator to its stage start
    time (all operators of a stage share a start time by the stage
    execution model).
    """

    latency: float
    stage_timings: tuple[StageTiming, ...]
    op_start: dict[str, float]
    op_finish: dict[str, float]

    def gpu_finish(self, gpu: int) -> float:
        """Finish time of the last stage on one GPU (0.0 when idle)."""
        return max(
            (t.finish for t in self.stage_timings if t.stage.gpu == gpu), default=0.0
        )


def evaluate_schedule(
    profile: CostProfile, schedule: Schedule, validate: bool = True
) -> EvaluationResult:
    """Compute stage start/finish times and the end-to-end latency.

    Raises :class:`~repro.core.schedule.ScheduleError` when the schedule
    is infeasible (missing operators, dependent operators sharing a
    stage, or a cyclic stage graph).
    """
    if validate:
        schedule.validate(profile.graph)
    latency, start, finish = StageGraphEvaluator(profile, schedule).timings()
    stages = schedule.all_stages()
    timings = tuple(
        StageTiming(stage=st, start=start[i], finish=finish[i])
        for i, st in enumerate(stages)
    )
    op_start = {op: start[i] for i, st in enumerate(stages) for op in st.ops}
    op_finish = {op: finish[i] for i, st in enumerate(stages) for op in st.ops}
    return EvaluationResult(
        latency=latency, stage_timings=timings, op_start=op_start, op_finish=op_finish
    )


#: Latency only, for callers that need no per-stage timing.
evaluate_latency = soa_latency
