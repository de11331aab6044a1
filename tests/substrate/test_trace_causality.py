"""Property: every ExecutionTrace respects causality, whatever the
scheduler.

For random layered DAGs scheduled by *every* registered algorithm and
executed on the engine:

* ``op_launch <= op_start <= op_finish`` for every operator;
* no operator starts before the delivery of each cross-GPU
  predecessor's tensor (transfer tags are ``"{src_op}->{dst_op}"``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import ALGORITHMS, schedule_graph
from repro.models import random_dag_profile
from repro.substrate import EngineConfig, MultiGpuEngine

EPS = 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 200),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    num_gpus=st.integers(2, 4),
    overlap=st.booleans(),
)
def test_trace_causality(seed, algorithm, num_gpus, overlap):
    profile = random_dag_profile(
        seed=seed, num_ops=24, num_layers=4, num_gpus=num_gpus
    )
    result = schedule_graph(profile, algorithm)
    engine = MultiGpuEngine(
        EngineConfig(
            launch_overhead_ms=0.002,
            overlap_launch=overlap,
            contention_penalty=0.06,
        )
    )
    trace = engine.run(profile.graph, result.schedule)

    graph = profile.graph
    assert set(trace.op_finish) == set(graph.names)
    for op in graph.names:
        assert trace.op_launch[op] <= trace.op_start[op] + EPS
        assert trace.op_start[op] <= trace.op_finish[op] + EPS

    # cross-GPU deliveries gate their consumer's start
    gpu_of = {op: g for g in result.schedule.used_gpus()
              for st_ in result.schedule.stages_on(g) for op in st_.ops}
    delivered = {rec.tag: rec.finish_time for rec in trace.transfers}
    for u in graph.names:
        for v in graph.successors(u):
            if gpu_of[u] == gpu_of[v]:
                continue
            tag = f"{u}->{v}"
            assert tag in delivered, f"missing transfer {tag} ({algorithm})"
            assert trace.op_start[v] >= delivered[tag] - EPS
            # and the producer finished before its tensor left
            assert delivered[tag] >= trace.op_finish[u] - EPS
