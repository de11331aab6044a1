"""Work units: the pure, picklable quantum of a figure sweep.

A :class:`WorkUnit` fully describes one independent computation —
"build this workload, schedule it with this algorithm, report these
numbers" — so it can be shipped to a worker process, executed there
without any shared state, and cached under a content-addressed key.

Two spec types cover every figure:

* :class:`RandomDagSpec` — the Section V random layered DAGs behind
  Figs. 7-11 (generator parameters + seed + profile knobs);
* :class:`RealModelSpec` — the Section VI real models behind
  Figs. 12-14 (model, input size, platform).

Unit kinds select what the worker computes:

========== ==========================================================
kind        payload
========== ==========================================================
latency     ``{"latency": ...}`` — the scheduler's predicted latency
measured    ``{"measured_ms": ..., "predicted_ms": ...}`` — the
            discrete-event engine's measured latency for the schedule
sched-cost  ``{"minutes": ..., <breakdown>}`` — the Fig. 14 scheduling
            -optimization bill (includes algorithm *wall time*, so this
            kind is a measurement, not a pure function of the spec)
========== ==========================================================

Key canonicalization — the unit-level dedup
-------------------------------------------
Single-GPU algorithms (``sequential``, ``ios``) never pay inter-GPU
transfers and never see more than one GPU, so their results are
invariant under the spec fields that only matter in the multi-GPU
setting (``num_gpus``, ``transfer_ratio``, ``transfer_floor``).
:meth:`RandomDagSpec.key_fields` pins those fields to fixed sentinels
for single-GPU algorithms, which makes the cache keys of e.g. the
Fig. 7 sequential baseline *identical across the GPU-count sweep* —
the executor collapses equal keys before dispatch, running the unit
once and sharing the payload.

Batched execution — the persistent-worker path
----------------------------------------------
The parallel executor does not ship one pickled :class:`WorkUnit` per
task.  It groups units by spec, packs them into batches of compact
``(index, spec_idx, kind, algorithm, schedule_kwargs)`` tuples over a
per-batch spec table, and sends each batch to :func:`execute_batch` in
a pool worker.  Workers keep an LRU workload memo (spec → built
``CostProfile``), so the six algorithms of one spec rebuild the DAG
and its cost profile once instead of six times — the dominant cost of
a latency sweep.  ``sched-cost`` units bypass the memo because their
payload *is* a wall-time measurement (see :func:`execute_batch`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any

from .keying import CACHE_SCHEMA_VERSION, content_key

__all__ = [
    "SINGLE_GPU_ALGORITHMS",
    "UNIT_KINDS",
    "RandomDagSpec",
    "RealModelSpec",
    "WorkUnit",
    "clear_workload_memo",
    "execute_batch",
    "execute_unit",
    "replay_unit_trace",
]

#: Algorithms whose results are invariant under multi-GPU-only knobs.
SINGLE_GPU_ALGORITHMS = frozenset({"sequential", "ios"})

UNIT_KINDS = ("latency", "measured", "sched-cost")


@dataclass(frozen=True)
class RandomDagSpec:
    """One Section V random-DAG workload plus its cost-profile knobs.

    Field defaults mirror :class:`repro.models.randomdag.RandomDagConfig`
    and :func:`repro.models.randomdag.random_dag_profile`.
    """

    seed: int
    num_gpus: int = 4
    num_ops: int = 200
    num_layers: int = 14
    num_edges: int | None = None
    cost_min: float = 0.1
    cost_max: float = 4.0
    transfer_ratio: float = 0.8
    transfer_floor: float = 0.1
    saturation_ms: float = 3.0
    contention_penalty: float = 0.06
    max_streams: int = 0

    def build(self) -> Any:
        """Generate the DAG and wrap it in a :class:`CostProfile`."""
        from ..models.randomdag import RandomDagConfig, random_dag_profile

        cfg = RandomDagConfig(
            num_ops=self.num_ops,
            num_layers=self.num_layers,
            num_edges=self.num_edges,
            cost_min=self.cost_min,
            cost_max=self.cost_max,
            transfer_ratio=self.transfer_ratio,
            transfer_floor=self.transfer_floor,
            saturation_ms=self.saturation_ms,
        )
        return random_dag_profile(
            cfg,
            seed=self.seed,
            num_gpus=self.num_gpus,
            contention_penalty=self.contention_penalty,
            max_streams=self.max_streams,
        )

    def key_fields(self, algorithm: str) -> dict[str, Any]:
        """Spec fields as they enter the cache key for ``algorithm``.

        Single-GPU algorithms get the multi-GPU-only fields pinned
        (see the module docstring) so equivalent units collapse.
        """
        fields: dict[str, Any] = {"spec": "random-dag/v1", **asdict(self)}
        if algorithm in SINGLE_GPU_ALGORITHMS:
            fields["num_gpus"] = 1
            fields["transfer_ratio"] = 0.0
            fields["transfer_floor"] = 0.0
        return fields


@dataclass(frozen=True)
class RealModelSpec:
    """One Section VI real-model workload on a named platform."""

    model: str
    input_size: int
    num_gpus: int = 2
    platform: str = "dual-a40"

    def profiler(self) -> Any:
        from ..substrate.platform import dual_a40
        from ..substrate.profiler import PlatformProfiler

        if self.platform != "dual-a40":
            raise ValueError(f"unknown platform {self.platform!r}")
        return PlatformProfiler(dual_a40(self.num_gpus))

    def build(self) -> Any:
        from ..experiments.realmodels import MODEL_BUILDERS

        return self.profiler().profile(MODEL_BUILDERS[self.model](self.input_size))

    def key_fields(self, algorithm: str) -> dict[str, Any]:
        del algorithm  # engine-measured results keep every field as-is
        return {"spec": "real-model/v1", **asdict(self)}


@dataclass(frozen=True)
class WorkUnit:
    """One ``(figure, x, instance, algorithm)`` computation.

    ``figure``, ``x`` and ``instance`` identify the unit for reporting
    and aggregation only — they do **not** enter the cache key, which
    depends purely on the content that determines the result: the
    canonicalized spec, the algorithm, the schedule kwargs, the kind
    and the cache schema version.
    """

    figure: str
    x: object
    instance: int
    algorithm: str
    spec: RandomDagSpec | RealModelSpec
    schedule_kwargs: tuple[tuple[str, Any], ...] = ()
    kind: str = "latency"

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown unit kind {self.kind!r}; choose from {UNIT_KINDS}"
            )

    def key(self) -> str:
        """Content-addressed cache key of this unit."""
        return content_key(
            {
                "schema_version": CACHE_SCHEMA_VERSION,
                "kind": self.kind,
                "algorithm": self.algorithm,
                "schedule_kwargs": dict(self.schedule_kwargs),
                "workload": self.spec.key_fields(self.algorithm),
            }
        )


def execute_unit(unit: WorkUnit) -> tuple[dict[str, float], dict[str, float]]:
    """Run one unit; returns ``(payload, meta)``.

    The payload holds the deterministic result values the sweep
    aggregates (and the cache stores); meta holds measurement
    diagnostics (wall times) that must never feed back into figure
    data.  Importable at module level so worker processes can unpickle
    and call it under every multiprocessing start method.
    """
    from ..core.api import schedule_graph

    kwargs = dict(unit.schedule_kwargs)
    if unit.kind == "latency":
        result = schedule_graph(unit.spec.build(), unit.algorithm, **kwargs)
        return {"latency": result.latency}, {
            "scheduling_time_s": result.scheduling_time
        }
    if unit.kind == "measured":
        if not isinstance(unit.spec, RealModelSpec):
            raise TypeError("'measured' units need a RealModelSpec")
        profiler = unit.spec.profiler()
        profile = profiler.profile(
            _model_builder(unit.spec.model)(unit.spec.input_size)
        )
        result = schedule_graph(profile, unit.algorithm, **kwargs)
        trace = profiler.engine().run(profile.graph, result.schedule)
        return {
            "measured_ms": trace.latency,
            "predicted_ms": result.latency,
        }, {"scheduling_time_s": result.scheduling_time}
    if unit.kind == "sched-cost":
        if not isinstance(unit.spec, RealModelSpec):
            raise TypeError("'sched-cost' units need a RealModelSpec")
        from ..experiments.fig14_scheduling_cost import scheduling_cost_minutes

        profile = unit.spec.build()
        minutes, breakdown = scheduling_cost_minutes(
            profile, unit.algorithm, **kwargs
        )
        return {"minutes": minutes, **breakdown}, {}
    raise AssertionError(f"unhandled kind {unit.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Batched execution (the persistent-worker path of ``run_units``)
# ---------------------------------------------------------------------------

#: One unit on the batch wire: ``(index, spec_idx, kind, algorithm,
#: schedule_kwargs)``.  ``index`` is an opaque caller token (the
#: executor uses the unit's position in its input), ``spec_idx`` points
#: into the batch's spec table.
BatchItem = tuple[int, int, str, str, tuple[tuple[str, Any], ...]]

@dataclass
class _Workload:
    """One memoized workload: the built profile, the profiler that made
    it (real models only), and the shared spatial-mapping cache handed
    to ``spatial_cache``-capable algorithms (see
    :func:`repro.core.hios_lp.memo_spatial`)."""

    profile: Any
    profiler: Any = None
    spatial: dict[str, Any] = field(default_factory=dict)


#: Worker-side workload memo: spec → built workload.  Worker processes
#: persist for the lifetime of the pool, so a worker that already built
#: the :class:`~repro.costmodel.profile.CostProfile` for a spec reuses
#: it (with its warm ``stage_time`` memo and shared spatial-mapping
#: cache) for every later unit sharing that spec.
_WORKLOAD_MEMO: "OrderedDict[RandomDagSpec | RealModelSpec, _Workload]" = OrderedDict()
_WORKLOAD_MEMO_CAPACITY = 16


def clear_workload_memo() -> None:
    """Drop the worker-side workload memo (test isolation hook)."""
    _WORKLOAD_MEMO.clear()


def _memoized_workload(
    spec: "RandomDagSpec | RealModelSpec",
) -> tuple[_Workload, bool]:
    """Build (or fetch) the workload of ``spec``; returns ``(value, reused)``.

    Reuse is semantically free: the build is a pure function of the
    frozen spec, and the only state a reuse carries over is caches of
    pure function values (the profile's ``stage_time`` memo, the
    spatial-mapping cache) — so every schedule and latency computed on
    a reused workload is bit-identical to one computed on a fresh
    build.
    """
    hit = _WORKLOAD_MEMO.get(spec)
    if hit is not None:
        _WORKLOAD_MEMO.move_to_end(spec)
        return hit, True
    if isinstance(spec, RealModelSpec):
        profiler = spec.profiler()
        profile = profiler.profile(_model_builder(spec.model)(spec.input_size))
        value = _Workload(profile=profile, profiler=profiler)
    else:
        value = _Workload(profile=spec.build())
    _WORKLOAD_MEMO[spec] = value
    while len(_WORKLOAD_MEMO) > _WORKLOAD_MEMO_CAPACITY:
        _WORKLOAD_MEMO.popitem(last=False)
    return value, False


def execute_batch(
    specs: "list[RandomDagSpec | RealModelSpec]",
    items: "list[BatchItem]",
) -> tuple[list[tuple[int, dict[str, float], dict[str, float]]], int]:
    """Run a batch of compact unit descriptions in one worker call.

    ``specs`` is the batch's deduplicated spec table and each item
    references it by index, so a batch pickles each spec once however
    many units share it.  Returns ``(results, reuses)`` where results
    is ``[(index, payload, meta), ...]`` in batch order and ``reuses``
    counts units served from the worker's workload memo.

    Units whose algorithm has a window-independent spatial phase
    additionally share that phase through the workload's
    ``spatial_cache`` (e.g. ``hios-lp`` at three windows plus
    ``inter-lp`` run Alg. 1 once between them) — bit-identical by
    construction, see :func:`repro.core.hios_lp.memo_spatial`.

    ``sched-cost`` units bypass the memo entirely: their payload embeds
    the algorithm's *wall time* (the Fig. 14 scheduling bill), and a
    warm ``stage_time`` memo or spatial cache would bias that
    measurement relative to the serial path, which rebuilds from
    scratch per unit.
    """
    from ..core.api import algorithm_options, schedule_graph

    results: list[tuple[int, dict[str, float], dict[str, float]]] = []
    reuses = 0
    for index, spec_i, kind, algorithm, schedule_kwargs in items:
        spec = specs[spec_i]
        kwargs = dict(schedule_kwargs)
        payload: dict[str, float]
        meta: dict[str, float]
        if kind not in ("latency", "measured"):
            # sched-cost (and any future measurement kind): defer to the
            # one-unit path, fresh build, no memo read or write.
            payload, meta = execute_unit(
                WorkUnit("batch", 0, 0, algorithm, spec, schedule_kwargs, kind)
            )
        else:
            if kind == "measured" and not isinstance(spec, RealModelSpec):
                raise TypeError("'measured' units need a RealModelSpec")
            workload, reused = _memoized_workload(spec)
            reuses += reused
            if "spatial_cache" in algorithm_options(algorithm):
                kwargs["spatial_cache"] = workload.spatial
            result = schedule_graph(workload.profile, algorithm, **kwargs)
            meta = {"scheduling_time_s": result.scheduling_time}
            if kind == "latency":
                payload = {"latency": result.latency}
            else:
                trace = workload.profiler.engine().run(workload.profile.graph, result.schedule)
                payload = {"measured_ms": trace.latency, "predicted_ms": result.latency}
        results.append((index, payload, meta))
    return results, reuses


def replay_unit_trace(unit: WorkUnit) -> tuple[Any, dict[str, int]]:
    """Re-execute one ``measured`` unit and return ``(trace, op_gpu)``.

    Units are pure functions of their spec, so the engine run can be
    reproduced deterministically at any time — including for units
    whose *payload* came out of the result cache without executing.
    This is what lets ``repro run --trace-out`` export a timeline per
    unit even on a fully warm cache: the cache stores the numbers, the
    replay regenerates the trace.  ``op_gpu`` maps every operator to
    its GPU (the input :func:`repro.obs.attribute_latency` and the
    Chrome exporter need alongside the trace).
    """
    from ..core.api import schedule_graph

    if unit.kind != "measured" or not isinstance(unit.spec, RealModelSpec):
        raise ValueError(
            f"only 'measured' units run the engine and have a trace to "
            f"replay; unit is kind {unit.kind!r} with "
            f"{type(unit.spec).__name__}"
        )
    profiler = unit.spec.profiler()
    profile = profiler.profile(
        _model_builder(unit.spec.model)(unit.spec.input_size)
    )
    result = schedule_graph(profile, unit.algorithm, **dict(unit.schedule_kwargs))
    trace = profiler.engine().run(profile.graph, result.schedule)
    return trace, result.schedule.assignment()


def _model_builder(model: str) -> Any:
    from ..experiments.realmodels import MODEL_BUILDERS

    return MODEL_BUILDERS[model]
