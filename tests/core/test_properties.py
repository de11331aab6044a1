"""Property-based tests (hypothesis) for the scheduling core.

Random small DAGs are generated and every scheduler is checked against
the structural invariants of Section III:

* every operator is scheduled exactly once, stages hold independent
  operators, and the stage graph is acyclic (``Schedule.validate``);
* the reported latency equals the evaluator's latency of the returned
  schedule;
* no schedule beats the critical-path/work lower bounds;
* single-GPU optimizers never lose to the sequential baseline;
* Alg. 2 never increases latency.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core import (
    OpGraph,
    critical_path_length,
    evaluate_latency,
    parallelize,
    priority_indicators,
    priority_order,
    schedule_graph,
    schedule_sequential,
)
from repro.costmodel import CostProfile, SaturationConcurrencyModel


@st.composite
def small_dags(draw, max_ops: int = 12) -> OpGraph:
    """Random layered DAG with random costs/occupancies/transfers."""
    n = draw(st.integers(2, max_ops))
    costs = draw(
        st.lists(
            st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    occs = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    g = OpGraph()
    for i in range(n):
        g.add_operator(f"v{i}", cost=costs[i], occupancy=occs[i])
    # edges only from lower to higher index: guaranteed acyclic
    for v in range(1, n):
        for u in range(v):
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
                g.add_edge(f"v{u}", f"v{v}", draw(st.floats(0.0, 3.0)))
    return g


@st.composite
def dag_profiles(draw) -> CostProfile:
    g = draw(small_dags())
    m = draw(st.integers(1, 4))
    blocking = draw(st.booleans())
    return CostProfile(
        graph=g,
        num_gpus=m,
        concurrency=SaturationConcurrencyModel(0.06),
        send_blocking=blocking,
    )


ALGOS = ["sequential", "ios", "hios-lp", "hios-mr", "inter-lp", "inter-mr"]


@settings(max_examples=40, deadline=None)
@given(profile=dag_profiles(), alg=st.sampled_from(ALGOS))
def test_schedule_is_feasible_and_latency_consistent(profile, alg):
    res = schedule_graph(profile, alg)
    res.schedule.validate(profile.graph)  # raises on any violation
    assert set(res.schedule.operators()) == set(profile.graph.names)
    assert evaluate_latency(profile, res.schedule) == math.nextafter(
        res.latency, res.latency
    ) or abs(evaluate_latency(profile, res.schedule) - res.latency) < 1e-9


@settings(max_examples=40, deadline=None)
@given(profile=dag_profiles(), alg=st.sampled_from(ALGOS))
def test_latency_respects_lower_bounds(profile, alg):
    res = schedule_graph(profile, alg)
    g = profile.graph
    # computation-only critical path: unavoidable by any schedule
    cp = critical_path_length(g, include_transfers=False)
    assert res.latency >= cp - 1e-9
    # total work over all GPUs (t(S) >= sum of t*u on one GPU, but the
    # safe bound is max over ops of cost)
    assert res.latency >= max(op.cost for op in g.operators()) - 1e-9


@settings(max_examples=30, deadline=None)
@given(profile=dag_profiles())
def test_ios_never_loses_to_sequential(profile):
    ios = schedule_graph(profile, "ios")
    seq = schedule_sequential(profile)
    assert ios.latency <= seq.latency + 1e-9


@settings(max_examples=30, deadline=None)
@given(profile=dag_profiles(), alg=st.sampled_from(["inter-lp", "inter-mr"]))
def test_parallelize_never_increases_latency(profile, alg):
    res = schedule_graph(profile, alg)
    before = evaluate_latency(profile, res.schedule)
    _, after, _ = parallelize(profile, res.schedule, window=3)
    assert after <= before + 1e-9


@settings(max_examples=40, deadline=None)
@given(graph=small_dags())
def test_priority_order_is_topological_permutation(graph):
    order = priority_order(graph)
    assert sorted(order) == sorted(graph.names)
    pos = {v: i for i, v in enumerate(order)}
    for u, v, _ in graph.edges():
        assert pos[u] < pos[v]


@settings(max_examples=40, deadline=None)
@given(graph=small_dags())
def test_priority_indicator_recurrence(graph):
    p = priority_indicators(graph)
    for v in graph.names:
        succ_best = max(
            (graph.transfer(v, s) + p[s] for s in graph.successors(v)), default=0.0
        )
        assert p[v] == graph.cost(v) + succ_best


@settings(max_examples=25, deadline=None)
@given(graph=small_dags(max_ops=8))
def test_longest_valid_path_partitions_graph(graph):
    """Iterating path extraction consumes every vertex exactly once."""
    from repro.core import LongestPathEngine

    engine = LongestPathEngine(graph)
    remaining = set(graph.names)
    seen: set[str] = set()
    while remaining:
        path = engine.longest_valid_path(remaining)
        assert path.vertices
        assert set(path.vertices) <= remaining
        assert not (set(path.vertices) & seen)
        seen |= set(path.vertices)
        remaining -= set(path.vertices)
    assert seen == set(graph.names)
