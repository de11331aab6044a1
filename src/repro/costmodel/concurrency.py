"""Concurrency cost models: the stage execution time ``t(S)``.

Section III-A defines ``t(S)`` as the measured time of concurrently
executing the independent operator set ``S`` on a single GPU with a
common start time.  The paper obtains ``t(S)`` by profiling; we provide
three interchangeable models:

* :class:`MaxConcurrencyModel` — idealized hardware with unlimited
  parallelism (useful as an optimistic bound and for unit tests);
* :class:`SaturationConcurrencyModel` — the analytic model calibrated
  against the paper's Fig. 1 contention/under-utilization experiment;
* :class:`TableConcurrencyModel` — exact profiled values with a
  fallback model, mirroring the paper's profile-then-schedule flow.

All models satisfy the invariants ``t({v}) = t(v)`` and
``t(S) >= max_v t(v)`` which the property tests pin down.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Protocol, Sequence

from ..core.graph import Operator

__all__ = [
    "ConcurrencyModel",
    "MaxConcurrencyModel",
    "SumConcurrencyModel",
    "SaturationConcurrencyModel",
    "TableConcurrencyModel",
]


class ConcurrencyModel(Protocol):
    """Anything that can price the concurrent execution of a stage."""

    def duration(self, ops: Sequence[Operator]) -> float:
        """Return ``t(S)`` in milliseconds for the operator set ``ops``."""
        ...


class MaxConcurrencyModel:
    """Perfectly parallel GPU: ``t(S) = max_v t(v)``.

    An optimistic bound — real GPUs behave like this only while the
    total occupancy of the set stays at or below the device capacity.
    """

    def duration(self, ops: Sequence[Operator]) -> float:
        return max((op.cost for op in ops), default=0.0)


class SumConcurrencyModel:
    """Fully serialized GPU: ``t(S) = sum_v t(v)``.

    A pessimistic bound; concurrent execution never helps.  Useful to
    sanity-check that schedulers do not group operators when grouping
    cannot pay off.
    """

    def duration(self, ops: Sequence[Operator]) -> float:
        return sum(op.cost for op in ops)


class SaturationConcurrencyModel:
    """Occupancy-aware model reproducing the Fig. 1 regimes.

    Each operator ``v`` contributes work ``t(v) * u(v)`` where
    ``u(v) in (0, 1]`` is the fraction of the device the operator can
    occupy alone.  The stage time is

    ``t(S) = max(max_v t(v), sum_v t(v) u(v)) * (1 + lam * max(0, U - 1))``

    with ``U = sum_v u(v)``.  Consequences, matching the paper's
    motivating experiment:

    * two small operators (``u <= 0.5``) run truly in parallel —
      parallel/sequential ratio 0.5;
    * two saturating operators (``u = 1``) serialize *and* pay a
      contention/context-switch penalty ``lam`` — ratio above 1.0,
      exactly the ``128x128``-and-beyond regime of Fig. 1.

    Parameters
    ----------
    contention_penalty:
        ``lam`` — fractional slowdown per unit of excess occupancy.
        Default 0.06 puts the two-large-op ratio near the 1.05–1.12
        band measured on the A40 in Fig. 1.
    stream_overhead:
        ``kappa`` — fractional cost per *additional* concurrent stream
        (CUDA stream scheduling / cache interference), independent of
        occupancy.  Zero by default (the Section V synthetic setting);
        the platform profiler sets it for real-model workloads, where
        it damps the benefit of very wide stages of tiny kernels.
    """

    def __init__(
        self, contention_penalty: float = 0.06, stream_overhead: float = 0.0
    ) -> None:
        if not 0 <= contention_penalty < math.inf:
            raise ValueError("contention penalty must be finite and non-negative")
        if not 0 <= stream_overhead < math.inf:
            raise ValueError("stream overhead must be finite and non-negative")
        self.contention_penalty = contention_penalty
        self.stream_overhead = stream_overhead

    def duration(self, ops: Sequence[Operator]) -> float:
        if not ops:
            return 0.0
        longest = max(op.cost for op in ops)
        work = sum(op.cost * op.occupancy for op in ops)
        total_occ = sum(op.occupancy for op in ops)
        base = max(longest, work)
        excess = max(0.0, total_occ - 1.0)
        streams = 1.0 + self.stream_overhead * (len(ops) - 1)
        return base * (1.0 + self.contention_penalty * excess) * streams


class TableConcurrencyModel:
    """Profiled ``t(S)`` values with a fallback analytic model.

    The paper's scheduler consumes profiled stage timings; sets that
    were never profiled fall back to ``fallback`` (default: a
    :class:`SaturationConcurrencyModel`).  Keys are frozensets of
    operator names.
    """

    def __init__(
        self,
        table: Mapping[frozenset[str], float] | None = None,
        fallback: ConcurrencyModel | None = None,
    ) -> None:
        self._table: dict[frozenset[str], float] = {}
        for names, duration in (table or {}).items():
            self.record(names, duration)
        self._fallback = fallback if fallback is not None else SaturationConcurrencyModel()

    def record(self, names: Iterable[str], duration: float) -> None:
        """Store a profiled measurement for a set of operators; raises
        :class:`ValueError` unless ``duration`` is finite and
        non-negative.  The constructor records its ``table`` through
        here."""
        if not 0 <= duration < math.inf:
            raise ValueError("stage duration must be finite and non-negative")
        self._table[frozenset(names)] = duration

    def __len__(self) -> int:
        return len(self._table)

    def duration(self, ops: Sequence[Operator]) -> float:
        key = frozenset(op.name for op in ops)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        return self._fallback.duration(ops)
