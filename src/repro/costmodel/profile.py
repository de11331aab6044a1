"""Cost profile: the bundle of measurements a scheduler consumes.

HIOS is a *profile-based* scheduler: before optimization it measures
(i) each operator alone, (ii) candidate concurrent sets, and (iii)
inter-GPU transfers, then schedules against those numbers.  A
:class:`CostProfile` packages an annotated graph together with the
concurrency model so every scheduler takes a single, uniform input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..core.graph import OpGraph
from .concurrency import ConcurrencyModel, SaturationConcurrencyModel

__all__ = ["CostProfile"]


@dataclass
class CostProfile:
    """Everything the schedulers need to price a schedule.

    Attributes
    ----------
    graph:
        Computation graph whose vertex weights are solo execution times
        ``t(v)`` and whose edge weights are worst-case inter-GPU
        transfer times ``t(u, v)``.
    concurrency:
        The ``t(S)`` model for concurrent execution within one GPU.
    num_gpus:
        ``M`` — homogeneous GPUs available.
    max_streams:
        ``L`` — preset maximum CUDA streams per GPU, i.e. an upper
        bound on stage width.  ``0`` disables the bound.
    send_blocking:
        When true (default, matching the paper's CUDA-aware-MPI
        runtime), an inter-GPU transfer occupies the *sender* GPU's
        timeline: the MPI process issues blocking sends between kernel
        launches, so outgoing transfers of a stage serialize and delay
        the GPU's next stage.  When false, transfers are pure delays
        (the idealized model of Section III's precedence constraint) —
        exposed for ablations.
    gpu_speeds:
        Optional per-GPU relative speed factors (extension: the paper
        assumes homogeneous GPUs).  An operator or stage on GPU ``i``
        runs in ``t / gpu_speeds[i]``.  ``None`` = all 1.0.

    :meth:`stage_time` is memoized on ``(ops, gpu)``.  The scheduler
    inner loops re-price the same stage thousands of times (every
    Alg. 2 candidate re-prices every unchanged stage); the memo answers
    repeats in one dict probe.  It is keyed on the graph's mutation
    counter and the concurrency model identity, so changing either
    empties it.
    """

    graph: OpGraph
    concurrency: ConcurrencyModel = field(default_factory=SaturationConcurrencyModel)
    num_gpus: int = 2
    max_streams: int = 0
    send_blocking: bool = True
    gpu_speeds: Sequence[float] | None = None

    def __post_init__(self) -> None:
        self._cache: dict[tuple[tuple[str, ...], int | None], float] = {}
        self._cache_hits = 0
        self._cache_graph_version = self.graph.version
        self._cache_concurrency: ConcurrencyModel = self.concurrency
        if self.num_gpus < 1:
            raise ValueError("need at least one GPU")
        if self.max_streams < 0:
            raise ValueError("max_streams must be >= 0 (0 = unbounded)")
        if self.gpu_speeds is not None:
            if len(self.gpu_speeds) != self.num_gpus:
                raise ValueError(
                    f"gpu_speeds has {len(self.gpu_speeds)} entries for "
                    f"{self.num_gpus} GPUs"
                )
            if not all(0 < sp < math.inf for sp in self.gpu_speeds):
                raise ValueError("GPU speed factors must be positive and finite")
        self.graph.validate()

    @property
    def heterogeneous(self) -> bool:
        return self.gpu_speeds is not None and len(set(self.gpu_speeds)) > 1

    def gpu_speed(self, gpu: int) -> float:
        """Relative speed of one GPU (1.0 = reference).  The paper
        assumes homogeneous GPUs; per-GPU factors are this library's
        extension for mixed fleets."""
        if self.gpu_speeds is None:
            return 1.0
        return self.gpu_speeds[gpu]

    def stage_time(self, names: list[str] | tuple[str, ...], gpu: int | None = None) -> float:
        """``t(S)`` for a set of operator names, optionally scaled by
        the hosting GPU's speed factor.

        Memoized on ``(names, gpu)``; see the class docstring for the
        invalidation rules.
        """
        if (
            self._cache_graph_version != self.graph.version
            or self._cache_concurrency is not self.concurrency
        ):
            self._cache.clear()
            self._cache_hits = 0
            self._cache_graph_version = self.graph.version
            self._cache_concurrency = self.concurrency
        key = (tuple(names), gpu)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            return cached
        base = self.concurrency.duration([self.graph.operator(n) for n in key[0]])
        value = base if gpu is None else base / self.gpu_speed(gpu)
        self._cache[key] = value
        return value

    @property
    def stage_time_cache_hits(self) -> int:
        """Memo hits since construction (or the last invalidation) —
        surfaced in ``ScheduleResult.stats`` by the schedulers."""
        return self._cache_hits
