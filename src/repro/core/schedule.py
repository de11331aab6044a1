"""Schedule representation of Section III-A.

A schedule ``Q = {Q_i | 1 <= i <= M}`` assigns every operator to exactly
one GPU and partitions each GPU's operators into an ordered list of
*stages*.  Operators within a stage run concurrently (one CUDA stream
each); stages on a GPU run sequentially.  The paper's reference
implementation emits schedules as JSON consumed by its cuDNN/MPI engine;
we keep the same JSON contract so :mod:`repro.substrate.engine` can
execute any schedule produced here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .graph import OpGraph

__all__ = ["ScheduleError", "Stage", "Schedule"]


class ScheduleError(ValueError):
    """Raised for malformed or infeasible schedules."""


@dataclass(frozen=True)
class Stage:
    """One stage ``S_{i,j}``: a set of operators that start together on
    GPU ``gpu``.  Operator order inside a stage is irrelevant for timing
    but kept stable for reproducible JSON output."""

    gpu: int
    ops: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise ScheduleError(f"negative GPU index {self.gpu}")
        if not self.ops:
            raise ScheduleError("empty stage")
        if len(set(self.ops)) != len(self.ops):
            raise ScheduleError(f"stage contains duplicate operators: {self.ops}")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ops)

    def __contains__(self, name: str) -> bool:
        return name in self.ops


class Schedule:
    """A complete schedule ``Q`` over at most ``num_gpus`` GPUs."""

    def __init__(self, num_gpus: int, stages: Iterable[Stage] = ()) -> None:
        if num_gpus < 1:
            raise ScheduleError(f"need at least one GPU, got {num_gpus}")
        self.num_gpus = num_gpus
        self._per_gpu: list[list[Stage]] = [[] for _ in range(num_gpus)]
        self._placement: dict[str, tuple[int, int]] = {}  # op -> (gpu, stage idx)
        for st in stages:
            self.append_stage(st)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append_stage(self, stage: Stage) -> None:
        """Append ``stage`` after the existing stages of its GPU."""
        if stage.gpu >= self.num_gpus:
            raise ScheduleError(
                f"stage on GPU {stage.gpu} but schedule has {self.num_gpus} GPUs"
            )
        idx = len(self._per_gpu[stage.gpu])
        for op in stage.ops:
            if op in self._placement:
                raise ScheduleError(f"operator {op!r} scheduled twice")
            self._placement[op] = (stage.gpu, idx)
        self._per_gpu[stage.gpu].append(stage)

    def append_op(self, gpu: int, op: str) -> None:
        """Convenience: append a singleton stage holding ``op``."""
        self.append_stage(Stage(gpu, (op,)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stages_on(self, gpu: int) -> list[Stage]:
        """The ordered stage list ``Q_i`` of one GPU."""
        if not (0 <= gpu < self.num_gpus):
            raise ScheduleError(f"GPU index {gpu} out of range")
        return list(self._per_gpu[gpu])

    def all_stages(self) -> list[Stage]:
        """Every stage, grouped by GPU then stage order."""
        return [st for q in self._per_gpu for st in q]

    def gpu_of(self, op: str) -> int:
        """The GPU an operator is mapped to."""
        try:
            return self._placement[op][0]
        except KeyError:
            raise ScheduleError(f"operator {op!r} not scheduled") from None

    def stage_index_of(self, op: str) -> int:
        """Position of the operator's stage within its GPU's stage list."""
        try:
            return self._placement[op][1]
        except KeyError:
            raise ScheduleError(f"operator {op!r} not scheduled") from None

    def stage_of(self, op: str) -> Stage:
        gpu, idx = self._placement[op]
        return self._per_gpu[gpu][idx]

    def __contains__(self, op: str) -> bool:
        return op in self._placement

    def operators(self) -> list[str]:
        return list(self._placement)

    def assignment(self) -> dict[str, int]:
        """Map every scheduled operator to its GPU."""
        return {op: gpu for op, (gpu, _) in self._placement.items()}

    @property
    def num_stages(self) -> int:
        return sum(len(q) for q in self._per_gpu)

    def used_gpus(self) -> list[int]:
        """Indices of GPUs with at least one stage."""
        return [i for i, q in enumerate(self._per_gpu) if q]

    def gpu_order(self, gpu: int) -> list[str]:
        """Operators of one GPU flattened in stage order (the execution
        order Alg. 2 must preserve when regrouping)."""
        return [op for st in self._per_gpu[gpu] for op in st.ops]

    def max_stage_width(self) -> int:
        return max((len(st) for st in self.all_stages()), default=0)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, graph: OpGraph) -> None:
        """Check the schedule is feasible for ``graph``:

        * every graph operator appears exactly once;
        * operators within a stage are pairwise independent;
        * intra-GPU stage order respects operator dependencies;
        * the *stage graph* (stages as vertices, dependencies induced by
          operator edges plus per-GPU sequencing) is acyclic, i.e. a
          legal execution order exists.

        A thin wrapper over the error-severity ``repro.lint`` schedule
        rules (S001/S002/S006/S007/S008) that raises
        :class:`ScheduleError` listing *every* violation.  Use
        :func:`repro.lint.lint_schedule` directly to also collect the
        warning/info findings.
        """
        from ..lint.framework import LintContext, Linter

        ctx = LintContext(graph=graph, schedule=self)
        Linter().errors_only().for_packs("schedule").run(ctx).raise_errors(
            ScheduleError
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self) -> "Schedule":
        return Schedule(self.num_gpus, self.all_stages())

    def with_stages_on_gpu(self, gpu: int, stages: Sequence[Stage]) -> "Schedule":
        """Return a copy where GPU ``gpu``'s stage list is replaced."""
        out = Schedule(self.num_gpus)
        for i in range(self.num_gpus):
            source = stages if i == gpu else self._per_gpu[i]
            for st in source:
                if st.gpu != i:
                    raise ScheduleError(
                        f"stage for GPU {st.gpu} placed in GPU {i}'s list"
                    )
                out.append_stage(st)
        return out

    # ------------------------------------------------------------------
    # JSON contract (matches the paper's scheduler -> engine hand-off)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "num_gpus": self.num_gpus,
            "gpus": [
                {"gpu": i, "stages": [list(st.ops) for st in q]}
                for i, q in enumerate(self._per_gpu)
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        """Build a schedule from its JSON document form.

        The document is linted first (rules S003/S004/S005): duplicate
        or overlapping placements, invalid GPU counts/indices and
        malformed stage lists raise :class:`ScheduleError` naming every
        problem, instead of whichever ``KeyError`` construction happens
        to hit first.
        """
        from ..lint.framework import LintContext, Linter

        ctx = LintContext(schedule_doc=data)
        Linter().errors_only().run(ctx).raise_errors(
            ScheduleError, prefix="malformed schedule document: "
        )
        return cls.from_unlinted_dict(data)

    @classmethod
    def from_unlinted_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        """:meth:`from_dict` without the lint, for the schedule cache;
        raises :class:`ScheduleError` on anything that does not build.
        A document lists every GPU it declares (:meth:`to_dict` writes
        idle ones), which bounds ``num_gpus`` before any allocation."""
        try:
            num_gpus, entries = data["num_gpus"], data["gpus"]
            if not isinstance(num_gpus, int) or num_gpus > len(entries):
                raise ScheduleError(
                    f"malformed schedule document: num_gpus {num_gpus!r} for "
                    f"{len(entries)} 'gpus' entries"
                )
            sched = cls(num_gpus)
            for entry in entries:
                gpu = entry["gpu"]
                for ops in entry["stages"]:
                    sched.append_stage(Stage(gpu, tuple(ops)))
        except (KeyError, TypeError) as exc:
            raise ScheduleError(f"malformed schedule document: {exc}") from exc
        return sched

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.num_gpus == other.num_gpus and self._per_gpu == other._per_gpu

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = self.used_gpus()
        return (
            f"Schedule(gpus={self.num_gpus}, used={len(used)}, "
            f"stages={self.num_stages}, ops={len(self._placement)})"
        )
