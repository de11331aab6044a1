"""Core HIOS scheduling: graphs, schedules, evaluation and the paper's
algorithms (HIOS-LP, HIOS-MR, Alg. 2, IOS and sequential baselines)."""

from .analysis import ScheduleMetrics, analyze_schedule
from .api import ALGORITHMS, make_profile, schedule_graph
from .bounds import (
    bottleneck_bound,
    critical_path_bound,
    latency_lower_bound,
    optimality_gap,
    work_bound,
)
from .evaluator import EvaluationResult, StageTiming, evaluate_latency, evaluate_schedule
from .fasteval import EvalCounters, PrefixReplayer, StageGraphEvaluator, soa_latency
from .graph import GraphError, Operator, OpGraph
from .hios_lp import build_singleton_schedule, schedule_hios_lp, schedule_inter_gpu_lp
from .hios_mr import schedule_hios_mr, schedule_inter_gpu_mr
from .intra_gpu import IntraGpuStats, parallelize
from .ios import schedule_ios
from .longest_path import LongestPathEngine, ValidPath
from .graphio import graph_from_dict, graph_to_dict, load_graph, save_graph
from .priority import (
    critical_path,
    critical_path_length,
    priority_indicators,
    priority_order,
)
from .refine import local_search_assignment, schedule_hios_lp_ls
from .repair import (
    RepairError,
    RepairResult,
    repair_schedule,
    run_with_repair,
    splice_traces,
)
from .result import ScheduleResult
from .schedule import Schedule, ScheduleError, Stage
from .sequential import schedule_sequential

__all__ = [
    "ALGORITHMS",
    "EvalCounters",
    "EvaluationResult",
    "GraphError",
    "IntraGpuStats",
    "LongestPathEngine",
    "OpGraph",
    "Operator",
    "PrefixReplayer",
    "StageGraphEvaluator",
    "soa_latency",
    "analyze_schedule",
    "bottleneck_bound",
    "critical_path_bound",
    "latency_lower_bound",
    "optimality_gap",
    "work_bound",
    "RepairError",
    "RepairResult",
    "Schedule",
    "ScheduleError",
    "ScheduleMetrics",
    "ScheduleResult",
    "Stage",
    "StageTiming",
    "ValidPath",
    "build_singleton_schedule",
    "critical_path",
    "critical_path_length",
    "evaluate_latency",
    "evaluate_schedule",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "local_search_assignment",
    "save_graph",
    "schedule_hios_lp_ls",
    "make_profile",
    "parallelize",
    "priority_indicators",
    "priority_order",
    "repair_schedule",
    "run_with_repair",
    "schedule_graph",
    "schedule_hios_lp",
    "schedule_hios_mr",
    "schedule_inter_gpu_lp",
    "schedule_inter_gpu_mr",
    "schedule_ios",
    "schedule_sequential",
    "splice_traces",
]
