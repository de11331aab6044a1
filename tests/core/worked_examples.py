"""Fixtures for the paper's worked examples (Figs. 4-6).

:func:`repro.models.worked_examples.fig4_graph` is the Fig. 4 graph (the
serving zoo's ``tiny``); the profiles the walk-through tests start from
live here.  **Fig. 5** (Alg. 2 walk-through) is a two-GPU schedule whose
sequential per-GPU orders admit two profitable groupings (``{v2, v4}``
and ``{v5, v7}``) found by a window of size 2.
"""

from repro.core import OpGraph, Schedule, Stage
from repro.costmodel import CostProfile, TableConcurrencyModel
from repro.models.worked_examples import fig4_graph


def fig4_profile(num_gpus: int = 2) -> CostProfile:
    """Cost profile for the Fig. 4 walk-through (two GPUs)."""
    return CostProfile(graph=fig4_graph(), num_gpus=num_gpus)


def fig5_profile() -> CostProfile:
    """Graph + profiled pair times for the Fig. 5 walk-through.

    GPU 1 runs ``v1 v2 v4 v5 v7`` sequentially, GPU 2 runs ``v3 v6``.
    The profiled concurrent-pair table makes grouping ``{v2, v4}`` and
    ``{v5, v7}`` profitable (4 ms each instead of 3 + 3 sequential).
    """
    costs = {
        "v1": 2.0,
        "v2": 3.0,
        "v3": 4.0,
        "v4": 3.0,
        "v5": 3.0,
        "v6": 4.0,
        "v7": 3.0,
    }
    edges = [
        ("v1", "v2", 1.0),
        ("v3", "v6", 1.0),
    ]
    graph = OpGraph.from_edges(costs, edges)
    table = TableConcurrencyModel()
    table.record(["v2", "v4"], 4.0)
    table.record(["v5", "v7"], 4.0)
    return CostProfile(graph=graph, concurrency=table, num_gpus=2)


def fig5_initial_schedule() -> Schedule:
    """The given inter-GPU schedule (sequential within each GPU) that
    Alg. 2 improves."""
    sched = Schedule(2)
    for op in ("v1", "v2", "v4", "v5", "v7"):
        sched.append_stage(Stage(0, (op,)))
    for op in ("v3", "v6"):
        sched.append_stage(Stage(1, (op,)))
    return sched
