"""The serving model zoo: named graphs and memoized per-lease profiles.

Serving mixes models of different shapes on one pool, so the zoo maps
stable names to deterministic graph builders: three synthetic layered
DAGs in the Section V style (small/medium chunky) plus the paper's
Fig. 4 worked example.  Graphs and their :class:`CostProfile` per lease
size are memoized — the simulator asks for ``(model, k)`` thousands of
times per run and scheduling dominates the cost, so the schedule cache
in the simulator sits on top of this one.  The models are synthetic so
the scenario suite runs in CI seconds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..core.graph import OpGraph
from ..costmodel.concurrency import SaturationConcurrencyModel
from ..costmodel.profile import CostProfile
from ..models.randomdag import random_layered_dag
from ..models.worked_examples import fig4_graph

__all__ = ["MODEL_ZOO", "zoo_graph", "zoo_profile"]


def _tiny() -> OpGraph:
    return fig4_graph()


def _chain12() -> OpGraph:
    # 12 ops in 8 layers: mostly sequential, little inter-op parallelism
    return random_layered_dag(seed=101, num_ops=12, num_layers=8)


def _wide24() -> OpGraph:
    # 24 ops in 6 layers: wide, benefits from multi-GPU placement
    return random_layered_dag(seed=202, num_ops=24, num_layers=6)


def _deep40() -> OpGraph:
    # 40 ops in 12 layers: the heavy tenant workload
    return random_layered_dag(seed=303, num_ops=40, num_layers=12)


MODEL_ZOO: dict[str, Callable[[], OpGraph]] = {
    "tiny": _tiny,
    "chain12": _chain12,
    "wide24": _wide24,
    "deep40": _deep40,
}


@lru_cache(maxsize=None)
def zoo_graph(name: str) -> OpGraph:
    """The zoo model's graph (memoized; builders are deterministic)."""
    try:
        builder = MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo model {name!r}; choose from {sorted(MODEL_ZOO)}"
        ) from None
    return builder()


@lru_cache(maxsize=None)
def zoo_profile(name: str, num_gpus: int) -> CostProfile:
    """Cost profile of a zoo model on a lease of ``num_gpus`` GPUs."""
    return CostProfile(
        graph=zoo_graph(name),
        concurrency=SaturationConcurrencyModel(0.06),
        num_gpus=num_gpus,
    )
