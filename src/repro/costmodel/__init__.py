"""Cost models consumed by the schedulers: concurrent stage durations
``t(S)`` and the CostProfile bundle that packages them with a graph."""

from .concurrency import (
    ConcurrencyModel,
    MaxConcurrencyModel,
    SaturationConcurrencyModel,
    SumConcurrencyModel,
    TableConcurrencyModel,
)
from .profile import CostProfile

__all__ = [
    "ConcurrencyModel",
    "CostProfile",
    "MaxConcurrencyModel",
    "SaturationConcurrencyModel",
    "SumConcurrencyModel",
    "TableConcurrencyModel",
]
