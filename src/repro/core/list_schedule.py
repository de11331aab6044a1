"""Temporal operator scheduling (Alg. 1, lines 10-13).

Given a (possibly partial) operator-to-GPU assignment and a priority
order, place each operator at the earliest available start time on its
GPU: after the GPU's previously placed operator and after every already
assigned predecessor — plus the transfer time when the predecessor
lives on another GPU.  Predecessors that are still unassigned are
ignored; because the priority order is topological and the full
assignment is re-scheduled after every HIOS-LP iteration, the final
schedule always respects every dependency.

Under the sender-blocking communication model (the default, see
:class:`~repro.costmodel.profile.CostProfile`), an operator's outgoing
cross-GPU transfers are issued as serialized blocking sends right after
it finishes, occupying its GPU before the next operator may start —
the same semantics the stage evaluator charges, so the latency
HIOS-LP optimizes during GPU selection agrees with the final measure.

:func:`list_schedule_latency` is a one-shot
:class:`repro.core.fasteval.PrefixReplayer`, the incremental simulation
the scheduler inner loops use: it checkpoints the candidate-invariant
prefix and replays only the suffix.  The differential tests in
``tests/core/test_fasteval.py`` hold it to exact float equality with
the from-scratch reference in ``tests/oracles``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .fasteval import PrefixReplayer
from .graph import OpGraph
from .schedule import Schedule, Stage

__all__ = ["list_schedule_latency", "build_singleton_schedule"]


def list_schedule_latency(
    graph: OpGraph,
    assignment: Mapping[str, int],
    order: Sequence[str],
    num_gpus: int,
    send_blocking: bool = True,
    gpu_speeds: Sequence[float] | None = None,
) -> float:
    """Latency of list-scheduling ``order`` under ``assignment``.

    ``order`` must contain exactly the assigned operators, in a
    topological order of the full graph (descending priority
    indicators); an operator of ``order`` missing from ``assignment``
    raises :class:`KeyError`.  Runs in ``O(|V| + |E|)``.
    """
    for v in order:
        if v not in assignment:
            raise KeyError(v)
    replayer = PrefixReplayer(graph, num_gpus, send_blocking, gpu_speeds)
    replayer.snapshot(order, assignment, ())
    return replayer.replay(assignment)


def build_singleton_schedule(
    assignment: Mapping[str, int],
    order: Sequence[str],
    num_gpus: int,
) -> Schedule:
    """Materialize an assignment as a schedule of singleton stages, each
    GPU's stages ordered by the (topological) priority order."""
    sched = Schedule(num_gpus)
    for v in order:
        sched.append_stage(Stage(assignment[v], (v,)))
    return sched
