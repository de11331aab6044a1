"""Shared machinery for the Section VI real-model experiments.

Builds Inception-v3 / NASNet at a given input size, profiles them on
the dual-A40 platform, schedules with each algorithm, and *executes*
the schedule on the discrete-event engine — the measured latency, not
the scheduler's prediction, is what Figs. 12-14 report, exactly like
the paper's testbed runs.

:func:`run_real_model_series` threads those runs through the
:mod:`repro.sweep` engine (one :class:`~repro.sweep.units.WorkUnit`
per case × algorithm) so Figs. 12-14 share the parallel dispatch,
result cache and progress reporting of the random-DAG sweeps.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.api import algorithm_options
from ..models.builder import ModelGraph
from ..models.inception import inception_v3
from ..models.nasnet import nasnet
from ..models.randwire import randwire
from ..models.resnet import resnet50
from ..substrate.platform import dual_a40
from ..substrate.profiler import PlatformProfiler
from ..sweep import RealModelSpec, WorkUnit
from .config import ExperimentConfig, default_config
from .reporting import SeriesResult

__all__ = [
    "MODEL_BUILDERS",
    "default_profiler",
    "export_unit_traces",
    "run_real_model_series",
    "model_sizes",
]

MODEL_BUILDERS: dict[str, Callable[[int], ModelGraph]] = {
    "inception_v3": inception_v3,
    "nasnet": nasnet,
    # contrast workloads beyond the paper's two benchmarks
    "resnet50": resnet50,
    "randwire": randwire,
}

# input-size sweeps (the paper goes from the default size up to 2^K)
_SIZES_FAST = {
    "inception_v3": (299, 512, 1024),
    "nasnet": (331, 512, 1024),
    "resnet50": (224, 512, 1024),
    "randwire": (224, 512, 1024),
}
_SIZES_FULL = {
    "inception_v3": (299, 448, 640, 896, 1280, 2048),
    "nasnet": (331, 448, 640, 896, 1280, 2048),
    "resnet50": (224, 448, 640, 896, 1280, 2048),
    "randwire": (224, 448, 640, 896, 1280, 2048),
}


def model_sizes(model: str, config: ExperimentConfig) -> tuple[int, ...]:
    table = _SIZES_FAST if config.fast else _SIZES_FULL
    try:
        return table[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}") from None


def default_profiler(num_gpus: int = 2) -> PlatformProfiler:
    """The paper's primary testbed: dual A40 over an NVLink bridge."""
    return PlatformProfiler(dual_a40(num_gpus))


def export_unit_traces(units: Sequence[WorkUnit], trace_dir: str) -> list[str]:
    """Replay every ``measured`` unit and export a Chrome trace each.

    Payloads may have come out of the result cache without ever running
    in this process; units are pure functions of their spec, so the
    engine run is reproduced deterministically
    (:func:`repro.sweep.replay_unit_trace`) and exported as
    ``{figure}-{model}-{size}-{algorithm}.trace.json`` under
    ``trace_dir``.  Returns the written paths.
    """
    from pathlib import Path

    from ..obs import save_chrome_trace
    from ..sweep import replay_unit_trace

    out_dir = Path(trace_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    seen: set[str] = set()
    for unit in units:
        if unit.kind != "measured" or not isinstance(unit.spec, RealModelSpec):
            continue
        name = (
            f"{unit.figure}-{unit.spec.model}-{unit.spec.input_size}"
            f"-{unit.algorithm}.trace.json"
        )
        if name in seen:
            continue
        seen.add(name)
        trace, op_gpu = replay_unit_trace(unit)
        path = out_dir / name
        save_chrome_trace(
            trace,
            op_gpu,
            path,
            process_name=f"{unit.spec.model}@{unit.spec.input_size}",
        )
        written.append(str(path))
    return written


def run_real_model_series(
    figure: str,
    title: str,
    x_label: str,
    x: Sequence[object],
    cases: Sequence[tuple[str, int]],
    algorithms: Sequence[str],
    kind: str,
    value_key: str,
    config: ExperimentConfig | None = None,
    notes: str = "",
    num_gpus: int = 2,
    y_label: str = "inference latency (ms)",
) -> SeriesResult:
    """One real-model figure as a unit sweep.

    ``cases[i]`` is the ``(model, input_size)`` behind ``x[i]``; every
    case runs under every algorithm as one :class:`WorkUnit` of
    ``kind`` (``"measured"`` for engine latency, ``"sched-cost"`` for
    the Fig. 14 accounting), and ``series[alg][i] = payload[value_key]``.

    ``sched-cost`` payloads include the algorithm's *wall time*, so for
    publication runs of Fig. 14 prefer ``jobs=1`` (parallel workers
    timesharing a core inflate each other's wall clocks); the
    deterministic figures (12/13) are safe at any job count.
    """
    from .simsweep import dispatch_units

    cfg = config or default_config()
    units: list[WorkUnit] = []
    index: dict[tuple[int, str], int] = {}
    for ci, (model, size) in enumerate(cases):
        spec = RealModelSpec(model=model, input_size=size, num_gpus=num_gpus)
        for alg in algorithms:
            kwargs: tuple[tuple[str, object], ...] = (
                (("window", cfg.window),)
                if "window" in algorithm_options(alg)
                else ()
            )
            index[(ci, alg)] = len(units)
            units.append(
                WorkUnit(
                    figure=figure,
                    x=x[ci],
                    instance=0,
                    algorithm=alg,
                    spec=spec,
                    schedule_kwargs=kwargs,
                    kind=kind,
                )
            )
    payloads, stats = dispatch_units(cfg, figure, units)
    if cfg.trace_dir and kind == "measured":
        export_unit_traces(units, cfg.trace_dir)

    series = {
        alg: [payloads[index[(ci, alg)]][value_key] for ci in range(len(cases))]
        for alg in algorithms
    }
    return SeriesResult(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label=y_label,
        x=list(x),
        series=series,
        notes=notes,
        extras={"sweep": stats.to_dict()},
    )
