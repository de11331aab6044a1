"""Per-figure experiment drivers reproducing the paper's evaluation.

Each ``figNN_*`` module exposes ``run(config) -> SeriesResult``; the
``EXPERIMENTS`` registry maps figure ids to those drivers (Fig. 12 and
Fig. 14 take a ``model=`` argument and are registered per model).
"""

from . import (
    fig01_contention,
    fig02_comm_ratio,
    fig07_num_gpus,
    fig08_num_operators,
    fig09_num_dependencies,
    fig10_parallelism_degree,
    fig11_comm_overhead,
    fig12_real_models,
    fig13_gain_analysis,
    fig14_scheduling_cost,
)
from .config import ALGORITHM_ORDER, ExperimentConfig, default_config
from .realmodels import default_profiler, model_sizes
from .reporting import SeriesResult, format_table
from .simsweep import sweep_random_dags

EXPERIMENTS = {
    "fig1": fig01_contention.run,
    "fig2": fig02_comm_ratio.run,
    "fig7": fig07_num_gpus.run,
    "fig8": fig08_num_operators.run,
    "fig9": fig09_num_dependencies.run,
    "fig10": fig10_parallelism_degree.run,
    "fig11": fig11_comm_overhead.run,
    "fig12_inception": lambda config=None: fig12_real_models.run(config, "inception_v3"),
    "fig12_nasnet": lambda config=None: fig12_real_models.run(config, "nasnet"),
    "fig13": fig13_gain_analysis.run,
    "fig14_inception": lambda config=None: fig14_scheduling_cost.run(config, "inception_v3"),
    "fig14_nasnet": lambda config=None: fig14_scheduling_cost.run(config, "nasnet"),
}

__all__ = [
    "ALGORITHM_ORDER",
    "EXPERIMENTS",
    "ExperimentConfig",
    "SeriesResult",
    "default_config",
    "default_profiler",
    "format_table",
    "model_sizes",
    "sweep_random_dags",
]
