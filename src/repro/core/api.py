"""Top-level scheduling API and algorithm registry.

``schedule_graph`` is the one-call entry point: give it a graph (or a
ready-made :class:`~repro.costmodel.profile.CostProfile`), pick an
algorithm by name, get a :class:`~repro.core.result.ScheduleResult`.
The registry names match the paper's six comparison points:

========== ====================================================
name        algorithm
========== ====================================================
sequential  one GPU, one operator at a time (Section V-B)
ios         IOS single-GPU DP (Ding et al.)
hios-lp     Alg. 1 + Alg. 2 (the paper's main contribution)
hios-mr     Alg. 3 + Alg. 2
inter-lp    Alg. 1 only ("inter-GPU w/ LP")
inter-mr    Alg. 3 only ("inter-GPU w/ MR")
hios-lp-ls  extension: Alg. 1 + local search + Alg. 2
========== ====================================================
"""

from __future__ import annotations

import inspect
from functools import cache
from typing import Callable

from ..costmodel.concurrency import ConcurrencyModel
from ..costmodel.profile import CostProfile
from .graph import OpGraph
from .hios_lp import schedule_hios_lp, schedule_inter_gpu_lp
from .hios_mr import schedule_hios_mr, schedule_inter_gpu_mr
from .ios import schedule_ios
from .refine import schedule_hios_lp_ls
from .result import ScheduleResult
from .sequential import schedule_sequential

__all__ = ["ALGORITHMS", "algorithm_options", "schedule_graph", "make_profile"]

ALGORITHMS: dict[str, Callable[..., ScheduleResult]] = {
    "sequential": schedule_sequential,
    "ios": schedule_ios,
    "hios-lp": schedule_hios_lp,
    "hios-mr": schedule_hios_mr,
    "inter-lp": schedule_inter_gpu_lp,
    "inter-mr": schedule_inter_gpu_mr,
    # extension beyond the paper: Alg. 1 + operator-level local search
    "hios-lp-ls": schedule_hios_lp_ls,
}


def algorithm_options(algorithm: str) -> frozenset[str]:
    """The keyword options ``algorithm`` takes (e.g. ``"window"``,
    ``"spatial_cache"``), read off the function :data:`ALGORITHMS` maps
    it to."""
    return _options(ALGORITHMS[algorithm])


@cache
def _options(fn: Callable[..., ScheduleResult]) -> frozenset[str]:
    return frozenset(list(inspect.signature(fn).parameters)[1:])


def make_profile(
    graph: OpGraph,
    num_gpus: int = 2,
    concurrency: ConcurrencyModel | None = None,
    max_streams: int = 0,
) -> CostProfile:
    """Build a :class:`CostProfile` with sensible defaults (saturation
    concurrency model, unbounded streams)."""
    if concurrency is None:
        return CostProfile(graph=graph, num_gpus=num_gpus, max_streams=max_streams)
    return CostProfile(
        graph=graph,
        num_gpus=num_gpus,
        max_streams=max_streams,
        concurrency=concurrency,
    )


def schedule_graph(
    graph: OpGraph | CostProfile,
    algorithm: str = "hios-lp",
    num_gpus: int = 2,
    concurrency: ConcurrencyModel | None = None,
    max_streams: int = 0,
    **kwargs: object,
) -> ScheduleResult:
    """Schedule ``graph`` with the named algorithm.

    Extra keyword arguments are forwarded to the algorithm (e.g.
    ``window=`` for the HIOS variants, ``mode=`` / ``beam_width=`` for
    IOS).  When a :class:`CostProfile` is passed, ``num_gpus``,
    ``concurrency`` and ``max_streams`` are ignored.
    """
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from: {known}") from None
    if isinstance(graph, CostProfile):
        profile = graph
    else:
        profile = make_profile(
            graph, num_gpus=num_gpus, concurrency=concurrency, max_streams=max_streams
        )
    return fn(profile, **kwargs)
