"""Simulated hardware substrate: GPU device models, interconnects,
the discrete-event multi-GPU execution engine, and the profiler that
turns model graphs into scheduler-ready cost profiles."""

from .device import A40, DEVICE_PRESETS, RTX_A5500, V100S, GpuDeviceModel, KernelWork
from .engine import EngineConfig, EngineError, ExecutionTrace, MultiGpuEngine
from .faults import (
    BACKOFF_CAP_DOUBLINGS,
    FailureEvent,
    FaultError,
    FaultPlan,
    GpuFailure,
    GpuRepair,
    GpuSlowdown,
    LinkDegradation,
    TransferLoss,
    parse_fault,
)
from .link import LINK_PRESETS, NVLINK_BRIDGE, NVSWITCH, PCIE_GEN3_X16, LinkModel
from .mpi import SimFabric, TransferRecord
from .platform import (
    MultiGpuPlatform,
    dual_a40,
    dual_a5500,
    dual_v100s,
    nvswitch_platform,
)
from .profiler import PlatformProfiler

__all__ = [
    "A40",
    "BACKOFF_CAP_DOUBLINGS",
    "DEVICE_PRESETS",
    "EngineConfig",
    "EngineError",
    "ExecutionTrace",
    "FailureEvent",
    "FaultError",
    "FaultPlan",
    "GpuDeviceModel",
    "GpuFailure",
    "GpuRepair",
    "GpuSlowdown",
    "KernelWork",
    "LinkDegradation",
    "TransferLoss",
    "parse_fault",
    "LINK_PRESETS",
    "LinkModel",
    "MultiGpuEngine",
    "MultiGpuPlatform",
    "NVLINK_BRIDGE",
    "NVSWITCH",
    "PCIE_GEN3_X16",
    "PlatformProfiler",
    "RTX_A5500",
    "SimFabric",
    "TransferRecord",
    "V100S",
    "dual_a40",
    "dual_a5500",
    "dual_v100s",
    "nvswitch_platform",
]
