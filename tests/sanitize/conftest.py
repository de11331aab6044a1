"""Shared fixtures: tiny graphs/schedules with known HB structure."""

import pytest

from repro.core import OpGraph, Schedule, Stage
from repro.substrate import EngineConfig, MultiGpuEngine


def make_engine(**kwargs):
    """An engine with the timing knobs zeroed so traces are easy to
    reason about (the idiom of the substrate test suite)."""
    defaults = dict(
        launch_overhead_ms=0.0,
        launch_included_in_cost=False,
        contention_penalty=0.0,
    )
    defaults.update(kwargs)
    return MultiGpuEngine(EngineConfig(**defaults))


@pytest.fixture
def chain():
    """a -> b with a 0.5 ms transfer."""
    return OpGraph.from_edges({"a": 1.0, "b": 1.0}, [("a", "b", 0.5)])


@pytest.fixture
def split_schedule():
    """The chain split across two GPUs, one stage each."""
    return Schedule(2, [Stage(0, ("a",)), Stage(1, ("b",))])


@pytest.fixture
def diamond():
    """a -> {b, c} -> d, uniform costs, 0.5 ms transfers."""
    return OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        [("a", "b", 0.5), ("a", "c", 0.5), ("b", "d", 0.5), ("c", "d", 0.5)],
    )


@pytest.fixture
def diamond_schedule():
    """The diamond on two GPUs: b stays with a, c crosses over."""
    return Schedule(
        2,
        [
            Stage(0, ("a",)),
            Stage(1, ("c",)),
            Stage(0, ("b",)),
            Stage(0, ("d",)),
        ],
    )


@pytest.fixture
def deadlock_pair():
    """Two independent chains a->b and c->d scheduled in a cyclic wait:
    GPU 0 runs d then a, GPU 1 runs b then c — each GPU's first stage
    waits on the other's second (the substrate suite's classic case)."""
    graph = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, [("a", "b"), ("c", "d")]
    )
    schedule = Schedule(2)
    for gpu, op in [(0, "d"), (0, "a"), (1, "b"), (1, "c")]:
        schedule.append_op(gpu, op)
    return graph, schedule
