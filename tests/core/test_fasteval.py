"""Differential tests for the incremental evaluation engine.

The contract of :mod:`repro.core.fasteval` is *bit-identity*: every
component must produce exactly the floats (and therefore exactly the
schedules) of the from-scratch references in :mod:`tests.oracles`.
These tests exercise the engine both directly (PrefixReplayer /
StageGraphEvaluator against the oracles) and end-to-end (production
runs of every scheduler vs. runs inside ``reference_components()``),
across blocking and non-blocking communication and homogeneous and
heterogeneous GPUs.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALGORITHMS,
    EvalCounters,
    OpGraph,
    PrefixReplayer,
    Schedule,
    ScheduleError,
    Stage,
    StageGraphEvaluator,
    build_singleton_schedule,
    evaluate_schedule,
    list_schedule_latency,
    local_search_assignment,
    make_profile,
    parallelize,
    priority_order,
    schedule_graph,
    soa_latency,
)
from repro.core.fasteval import SKIP_DELAYS_PATH, SKIP_OFF_PATH
from repro.models import random_dag_profile

from .. import oracles
from .test_properties import dag_profiles


def _rand_graph(seed: int, n: int = 18) -> OpGraph:
    rng = random.Random(seed)
    g = OpGraph()
    for i in range(n):
        g.add_operator(f"v{i}", cost=rng.uniform(0.1, 4.0), occupancy=rng.uniform(0.1, 1.0))
    for v in range(1, n):
        for u in range(v):
            if rng.random() < 0.25:
                g.add_edge(f"v{u}", f"v{v}", rng.uniform(0.0, 2.0))
    return g


# ---------------------------------------------------------------------------
# PrefixReplayer vs. the list-scheduling oracle


@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("speeds", [None, (1.0, 1.5, 0.75)])
def test_prefix_replay_matches_reference(blocking, speeds):
    g = _rand_graph(seed=11)
    M = 3
    order = priority_order(g)
    rng = random.Random(7)
    assignment = {v: rng.randrange(M) for v in order}
    replayer = PrefixReplayer(g, M, send_blocking=blocking, gpu_speeds=speeds)
    for trial in range(20):
        varying = rng.sample(order, rng.randint(1, 4))
        replayer.snapshot(order, assignment, varying)
        for _ in range(M):
            for v in varying:
                assignment[v] = rng.randrange(M)
            want = oracles.list_schedule_latency(
                g, assignment, order, M, send_blocking=blocking, gpu_speeds=speeds
            )
            got = replayer.replay(assignment)
            assert got == want  # bit-identical, not approx


def test_prefix_replay_handles_partial_assignments():
    """The spatial-mapping use case: unmapped operators absent from the
    assignment and from the simulated order."""
    g = _rand_graph(seed=23)
    M = 2
    order = priority_order(g)
    rng = random.Random(3)
    half = order[: len(order) // 2]
    assignment = {v: rng.randrange(M) for v in half[: len(half) - 3]}
    varying = half[len(half) - 3 :]
    sub_order = [v for v in order if v in assignment or v in varying]
    replayer = PrefixReplayer(g, M)
    replayer.snapshot(sub_order, assignment, varying)
    for gpu in range(M):
        for v in varying:
            assignment[v] = gpu
        want = oracles.list_schedule_latency(g, assignment, sub_order, M)
        assert replayer.replay(assignment) == want
    for v in varying:
        del assignment[v]


def test_prefix_boundary_covers_predecessor_sends():
    """Under sender blocking, a predecessor's send loop reads the
    varying operator's assignment, so the boundary must not extend past
    the earliest predecessor."""
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        [("a", "b", 0.5), ("a", "c", 0.5), ("b", "d", 0.5), ("c", "d", 0.5)],
    )
    order = priority_order(g)
    pos = {v: i for i, v in enumerate(order)}
    blocking = PrefixReplayer(g, 2, send_blocking=True)
    nonblocking = PrefixReplayer(g, 2, send_blocking=False)
    # earliest predecessor of d, whichever of b/c the order puts first
    assert blocking.prefix_boundary(order, ["d"]) == min(pos["b"], pos["c"])
    assert nonblocking.prefix_boundary(order, ["d"]) == pos["d"]


class _BeginSpy(PrefixReplayer):
    """Records the position each simulation starts at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.begins: list[int] = []

    def _simulate(self, assign, order, start, *rest):
        self.begins.append(start)
        return super()._simulate(assign, order, start, *rest)

    def snapshot_begin(self, order, assignment, varying) -> tuple[int, int]:
        """(boundary, position the prefix simulation resumed at)."""
        k = self.snapshot(order, assignment, varying)
        return k, self.begins[-1]


def _replays_match(g, rp, order, assignment, varying, M, blocking, speeds, rng):
    for _ in range(M):
        for v in varying:
            assignment[v] = rng.randrange(M)
        want = oracles.list_schedule_latency(
            g, assignment, order, M, send_blocking=blocking, gpu_speeds=speeds
        )
        assert rp.replay(assignment) == want


@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("speeds", [None, (1.0, 1.5, 0.75)])
def test_snapshot_carries_the_prefix_across_paths(blocking, speeds):
    """The Alg. 1 sequence on one replayer: each path's snapshot
    resumes at the previous boundary when its own boundary is not
    earlier, and simulates from 0 when it is; every replay equals the
    oracle either way."""
    g = _rand_graph(seed=17, n=30)
    M = 3
    order = priority_order(g)
    rng = random.Random(29)
    rp = _BeginSpy(g, M, send_blocking=blocking, gpu_speeds=speeds)
    assignment: dict[str, int] = {}
    unscheduled = list(order)
    k_old = 0
    carried = restarted = 0
    while unscheduled:
        path = rng.sample(unscheduled, min(len(unscheduled), rng.randint(1, 4)))
        for v in path:
            unscheduled.remove(v)
        sub_order = [v for v in order if v in assignment or v in path]
        k, begin = rp.snapshot_begin(sub_order, assignment, path)
        if k >= k_old:
            assert begin == k_old
            carried += k_old > 0
        else:
            assert begin == 0
            restarted += 1
        _replays_match(g, rp, sub_order, assignment, path, M, blocking, speeds, rng)
        k_old = k
    assert carried > 0 and restarted > 0


@pytest.mark.parametrize("blocking", [True, False])
def test_snapshot_restarts_when_its_boundary_moves_back(blocking):
    g = _rand_graph(seed=19, n=24)
    M = 3
    order = priority_order(g)
    rng = random.Random(4)
    assignment = {v: rng.randrange(M) for v in order}
    rp = _BeginSpy(g, M, send_blocking=blocking)
    late = max(order, key=lambda v: rp.prefix_boundary(order, [v]))
    early = order[0]
    k_late, _ = rp.snapshot_begin(order, assignment, [late])
    _replays_match(g, rp, order, assignment, [late], M, blocking, None, rng)
    k_early, begin = rp.snapshot_begin(order, assignment, [early])
    assert k_early < k_late and begin == 0
    _replays_match(g, rp, order, assignment, [early], M, blocking, None, rng)


def test_snapshot_restarts_when_the_order_changes_before_its_boundary():
    """Two independent operators on one GPU swap places early in the
    order: the checkpoint no longer describes the new prefix."""
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 2.0, "c": 1.0, "d": 1.0, "e": 1.0},
        [("a", "c", 0.5), ("b", "d", 0.5), ("c", "e", 0.5), ("d", "e", 0.5)],
    )
    M = 2
    assignment = {"a": 0, "b": 0, "c": 1, "d": 0, "e": 1}
    rp = _BeginSpy(g, M)
    rng = random.Random(2)
    first = ["a", "b", "c", "d", "e"]
    k_old, _ = rp.snapshot_begin(first, assignment, ["e"])
    _replays_match(g, rp, first, assignment, ["e"], M, True, None, rng)
    swapped = ["b", "a", "c", "d", "e"]
    k, begin = rp.snapshot_begin(swapped, assignment, ["e"])
    assert k == k_old == 2 and begin == 0
    _replays_match(g, rp, swapped, assignment, ["e"], M, True, None, rng)


@pytest.mark.parametrize("blocking", [True, False])
def test_snapshot_restarts_after_a_non_varying_reassignment(blocking):
    """``refine``'s sequence: within a round successive operators'
    snapshots carry; an accepted move between rounds reassigns an
    operator outside the last varying set, so the next snapshot must
    simulate from 0 even though its boundary moved forward."""
    g = _rand_graph(seed=21, n=24)
    M = 3
    order = priority_order(g)
    rng = random.Random(8)
    assignment = {v: rng.randrange(M) for v in order}
    rp = _BeginSpy(g, M, send_blocking=blocking)
    by_boundary = sorted(order, key=lambda v: rp.prefix_boundary(order, [v]))
    first, second = by_boundary[len(order) // 2], by_boundary[-1]
    k_old, _ = rp.snapshot_begin(order, assignment, [first])
    _replays_match(g, rp, order, assignment, [first], M, blocking, None, rng)
    k, begin = rp.snapshot_begin(order, assignment, [second])
    assert k >= k_old > 0 and begin == k_old  # same assignment: carried
    _replays_match(g, rp, order, assignment, [second], M, blocking, None, rng)
    moved = order[0]  # runs before both boundaries; never varying
    assignment[moved] = (assignment[moved] + 1) % M
    k_new, begin = rp.snapshot_begin(order, assignment, [second])
    assert k_new == k and begin == 0
    _replays_match(g, rp, order, assignment, [second], M, blocking, None, rng)


def test_list_schedule_rejects_unassigned_operator():
    """An operator of ``order`` missing from ``assignment`` is an error
    in the one-shot public function exactly as in the oracle, not a
    read of the last GPU's free time."""
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 2.0, "c": 3.0}, [("a", "b", 0.5), ("b", "c", 0.5)]
    )
    assignment = {"a": 0, "b": 1}
    for fn in (list_schedule_latency, oracles.list_schedule_latency):
        with pytest.raises(KeyError, match="c"):
            fn(g, assignment, ["a", "b", "c"], 2)


# ---------------------------------------------------------------------------
# StageGraphEvaluator vs. the stage-graph oracle


def _candidates(prof, schedule, max_p=2):
    """Every Alg. 2 window over consecutive singleton stages whose
    operators are pairwise independent, with the merged schedule and the
    oracle's latency of it (``None`` when its stage graph is cyclic)."""
    graph = prof.graph
    for gpu in range(schedule.num_gpus):
        stages = schedule.stages_on(gpu)
        for pos in range(len(stages)):
            for p in range(1, max_p + 1):
                window = stages[pos : pos + p + 1]
                if len(window) <= p or any(len(st) > 1 for st in window):
                    break
                group = tuple(st.ops[0] for st in window)
                if not graph.independent(group):
                    continue
                merged = stages[:pos] + [Stage(gpu, group)] + stages[pos + 1 + p :]
                candidate = schedule.with_stages_on_gpu(gpu, merged)
                try:
                    want = oracles.evaluate_latency(prof, candidate)
                except ScheduleError:
                    want = None
                yield gpu, pos, p, group, candidate, want


@pytest.mark.parametrize("blocking", [True, False])
def test_stage_evaluator_matches_reference_on_merges(blocking):
    """``try_merge`` equals the oracle on every candidate, before and
    after each in-place ``commit``, and ``evaluate()`` equals the oracle
    on the committed schedule, on homogeneous and heterogeneous GPUs."""
    prof = random_dag_profile(seed=9, num_gpus=2, num_ops=30, num_layers=5)
    prof = replace(prof, send_blocking=blocking)
    _check_merges_and_commits(prof)
    _check_merges_and_commits(replace(prof, gpu_speeds=(1.0, 1.5)))


def _check_merges_and_commits(prof):
    """``ev`` re-sweeps after every commit; ``chained`` never does, so it
    prices from the state the commits alone maintain."""
    order = priority_order(prof.graph)
    assignment = {v: i % 2 for i, v in enumerate(order)}
    schedule = build_singleton_schedule(assignment, order, 2)
    ev = StageGraphEvaluator(prof, schedule)
    chained = StageGraphEvaluator(prof, schedule)
    want = oracles.evaluate_latency(prof, schedule)
    assert ev.evaluate() == chained.evaluate() == want

    rng = random.Random(5)
    checked = commits = 0
    while commits < 8:
        acyclic = []
        for gpu, pos, p, group, candidate, want in _candidates(prof, schedule):
            assert ev.try_merge(gpu, pos, p, group) == want
            assert chained.try_merge(gpu, pos, p, group) == want
            checked += 1
            if want is not None:
                acyclic.append((gpu, pos, p, group, candidate, want))
        if not acyclic:
            break
        gpu, pos, p, group, schedule, want = rng.choice(acyclic)
        # ``chained`` commits the candidate it priced last; ``ev`` has
        # priced others since and must price it again
        assert chained.try_merge(gpu, pos, p, group) == want
        assert chained.commit(gpu, pos, p, group) == want
        assert ev.commit(gpu, pos, p, group) == want
        assert ev.evaluate() == want
        commits += 1
    assert commits == 8 and checked > 50  # the sweep exercised merges
    assert chained.evaluate() == want


@settings(max_examples=40, deadline=None)
@given(profile=dag_profiles(), seed=st.integers(0, 2**16), hetero=st.booleans())
def test_skipped_candidates_are_never_faster(profile, seed, hetero):
    """Whenever the evaluator skips a candidate — off the committed
    critical path, or delaying the next stage of that path — the
    oracle's latency of that candidate is at least the committed
    latency, also after in-place commits, under blocking and
    non-blocking sends and homogeneous and heterogeneous speeds."""
    if hetero:
        speeds = tuple(1.0 + 0.5 * g for g in range(profile.num_gpus))
        profile = replace(profile, gpu_speeds=speeds)
    rng = random.Random(seed)
    order = priority_order(profile.graph)
    assignment = {v: rng.randrange(profile.num_gpus) for v in order}
    schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    ev = StageGraphEvaluator(profile, schedule)
    committed = ev.evaluate()
    for _ in range(4):
        acyclic = []
        for gpu, pos, p, group, candidate, want in _candidates(profile, schedule):
            if ev.skip_reason(gpu, pos, p, group) is not None:
                assert want is not None and want >= committed
            assert ev.try_merge(gpu, pos, p, group) == want
            if want is not None:
                acyclic.append((gpu, pos, p, group, candidate, want))
        if not acyclic:
            break
        gpu, pos, p, group, schedule, want = rng.choice(acyclic)
        committed = ev.commit(gpu, pos, p, group)
        assert committed == want


def test_window_along_the_critical_path_is_priced():
    """A window whose first member ``a`` is off the critical path but
    whose later members ``b`` -> ``c`` run along it can shorten the
    path by running them concurrently, so it must be priced, not
    skipped."""
    g = OpGraph()
    for name, cost in (("x", 3.0), ("a", 1.0), ("b", 2.0), ("c", 2.0)):
        g.add_operator(name, cost=cost, occupancy=0.3)
    g.add_edge("x", "b", 0.5)
    prof = make_profile(g, num_gpus=2)
    schedule = build_singleton_schedule(
        {"x": 0, "a": 1, "b": 1, "c": 1}, ["x", "a", "b", "c"], 2
    )
    ev = StageGraphEvaluator(prof, schedule)
    committed = ev.evaluate()
    merged = schedule.with_stages_on_gpu(1, [Stage(1, ("a", "b", "c"))])
    want = oracles.evaluate_latency(prof, merged)
    assert want < committed
    assert ev.skip_reason(1, 0, 2, ("a", "b", "c")) is None
    assert ev.try_merge(1, 0, 2, ("a", "b", "c")) == want


def _hand_built(ops, edges, assignment, order):
    """Profile and singleton schedule on 2 GPUs; ``ops`` maps each
    operator to its ``(cost, occupancy)``."""
    g = OpGraph()
    for name, (cost, occupancy) in ops.items():
        g.add_operator(name, cost=cost, occupancy=occupancy)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return make_profile(g, num_gpus=2), build_singleton_schedule(assignment, order, 2)


def _skip_and_price(prof, schedule, gpu, pos, p):
    """(skip reason, committed latency, oracle latency of the merge) for
    the window at ``pos .. pos + p`` of ``gpu``; also checks that
    ``try_merge`` prices the candidate exactly after the skip test."""
    stages = schedule.stages_on(gpu)
    group = tuple(st.ops[0] for st in stages[pos : pos + p + 1])
    merged = stages[:pos] + [Stage(gpu, group)] + stages[pos + 1 + p :]
    want = oracles.evaluate_latency(prof, schedule.with_stages_on_gpu(gpu, merged))
    ev = StageGraphEvaluator(prof, schedule)
    committed = ev.evaluate()
    reason = ev.skip_reason(gpu, pos, p, group)
    assert ev.try_merge(gpu, pos, p, group) == want
    return reason, committed, want


def test_serialized_sends_delay_the_chain_successor():
    """``b`` waits for ``z`` on the other GPU; merged with ``a`` it still
    waits, and then sends ``a``'s slot before the chain may go on, so the
    critical chain successor ``c`` starts later: skipped unpriced."""
    prof, schedule = _hand_built(
        {"a": (1.0, 0.3), "b": (1.0, 0.3), "c": (5.0, 1.0), "x": (0.1, 0.1), "z": (3.0, 0.3)},
        [("a", "x", 2.0), ("z", "b", 0.5)],
        {"a": 0, "b": 0, "c": 0, "x": 1, "z": 1},
        ["z", "a", "b", "x", "c"],
    )
    reason, committed, want = _skip_and_price(prof, schedule, 0, 0, 1)
    assert reason == SKIP_DELAYS_PATH
    assert want > committed


def test_serialized_sends_delay_a_remote_consumer():
    """As above, but the critical stage after the window is ``t`` on the
    other GPU, fed by ``b``'s slot, which the merged stage sends after
    ``a``'s."""
    prof, schedule = _hand_built(
        {"a": (1.0, 0.3), "b": (1.0, 0.3), "y": (0.1, 0.1), "z": (3.0, 0.3), "t": (10.0, 1.0)},
        [("a", "y", 2.0), ("z", "b", 0.5), ("b", "t", 1.0)],
        {"a": 0, "b": 0, "y": 1, "z": 1, "t": 1},
        ["z", "a", "y", "b", "t"],
    )
    reason, committed, want = _skip_and_price(prof, schedule, 0, 0, 1)
    assert reason == SKIP_DELAYS_PATH
    assert want > committed


@pytest.mark.parametrize("occupancy", [0.3, 1.0])
def test_critical_path_ending_inside_the_window(occupancy):
    """The path ends at the window's last member, so no critical stage
    follows it: the candidate is priced unless the merged stage alone
    ends at or after the committed latency (saturating operators)."""
    prof, schedule = _hand_built(
        {"a": (5.0, occupancy), "b": (5.0, occupancy), "x": (1.0, 0.3)},
        [("a", "x", 0.5)],
        {"a": 0, "b": 0, "x": 1},
        ["a", "b", "x"],
    )
    reason, committed, want = _skip_and_price(prof, schedule, 0, 0, 1)
    if occupancy < 0.5:
        assert reason is None and want < committed
    else:
        assert reason == SKIP_DELAYS_PATH and want >= committed


def test_window_that_does_not_delay_its_critical_successor_is_priced():
    """Both members lie on the critical path, and the merged stage
    finishes before the next critical stage ``c`` started: the
    candidate is priced, and it improves."""
    prof, schedule = _hand_built(
        {"a": (2.0, 0.3), "b": (2.0, 0.3), "c": (5.0, 1.0), "t": (1.0, 0.3)},
        [("b", "t", 0.5)],
        {"a": 0, "b": 0, "c": 0, "t": 1},
        ["a", "b", "c", "t"],
    )
    reason, committed, want = _skip_and_price(prof, schedule, 0, 0, 1)
    assert reason is None and want < committed


def test_commit_orders_the_merged_stage_after_its_sources():
    """After a commit the merged stage must follow every source of
    every member in the committed topological order.  Here ``x`` feeds
    only the window's second member ``b`` and the first full sweep
    orders it after ``a``; pricing a later candidate whose cone holds
    both ``x`` and the merged stage must still recompute ``x`` first."""
    g = OpGraph.from_edges(
        {"p": 4.0, "q": 4.0, "x": 1.0, "a": 1.0, "b": 1.0}, [("x", "b", 0.5)]
    )
    prof = make_profile(g, num_gpus=2)
    schedule = build_singleton_schedule(
        {"p": 0, "q": 0, "x": 0, "a": 1, "b": 1}, ["a", "p", "q", "x", "b"], 2
    )
    ev = StageGraphEvaluator(prof, schedule)
    ev.evaluate()
    merged = schedule.with_stages_on_gpu(1, [Stage(1, ("a", "b"))])
    assert ev.commit(1, 0, 1, ("a", "b")) == oracles.evaluate_latency(prof, merged)
    both = merged.with_stages_on_gpu(0, [Stage(0, ("p", "q")), Stage(0, ("x",))])
    assert ev.try_merge(0, 0, 1, ("p", "q")) == oracles.evaluate_latency(prof, both)


def test_skip_is_counted_and_never_prices():
    """A skip counts as a window evaluation and a skip (a delay skip
    also in ``window_delay_skips``), runs no stage DP, and leaves
    ``try_merge`` exact for the same candidate; both reasons occur under
    blocking and non-blocking sends, homogeneous and heterogeneous."""
    base = random_dag_profile(seed=3, num_gpus=3, num_ops=40, num_layers=6)
    for blocking, speeds in product((True, False), (None, (1.0, 1.5, 0.75))):
        prof = replace(base, send_blocking=blocking, gpu_speeds=speeds)
        order = priority_order(prof.graph)
        schedule = build_singleton_schedule(
            {v: i % 3 for i, v in enumerate(order)}, order, 3
        )
        counters = EvalCounters()
        ev = StageGraphEvaluator(prof, schedule, counters=counters)
        committed = ev.evaluate()
        reasons = {SKIP_OFF_PATH: 0, SKIP_DELAYS_PATH: 0}
        for gpu, pos, p, group, _candidate, want in _candidates(prof, schedule):
            before = (counters.window_delta_evals, counters.soa_evals)
            reason = ev.skip_reason(gpu, pos, p, group)
            if reason is not None:
                reasons[reason] += 1
                assert counters.window_delta_evals == before[0] + 1
                assert counters.soa_evals == before[1]
                assert want is not None and want >= committed
            assert ev.try_merge(gpu, pos, p, group) == want
        assert reasons[SKIP_OFF_PATH] > 0 and reasons[SKIP_DELAYS_PATH] > 0
        assert counters.window_skips == sum(reasons.values())
        assert counters.window_delay_skips == reasons[SKIP_DELAYS_PATH]


def test_parallelize_edge_cases():
    """No operators, one operator, ``window=1``, and a schedule that
    already has multi-op stages."""
    counters = EvalCounters()
    empty = make_profile(OpGraph(), num_gpus=2)
    out, lat, stats = parallelize(empty, Schedule(2), counters=counters)
    assert lat == 0.0 and out.num_stages == 0 and stats.windows_tried == 0

    one = make_profile(OpGraph.from_edges({"a": 2.5}, []), num_gpus=2)
    sched = build_singleton_schedule({"a": 1}, ["a"], 2)
    out, lat, stats = parallelize(one, sched, counters=counters)
    assert lat == 2.5 and out.to_dict() == sched.to_dict()
    assert stats.windows_tried == 0
    assert counters.window_delta_evals == counters.window_skips == 0

    prof = random_dag_profile(seed=12, num_gpus=2, num_ops=40, num_layers=5)
    base = schedule_graph(prof, "inter-lp").schedule
    out, lat, stats = parallelize(prof, base, window=1, counters=counters)
    assert out.to_dict() == base.to_dict() and stats.windows_tried == 0
    assert counters.window_delta_evals == 0

    grouped, _, stats = parallelize(prof, base, window=2)
    assert stats.groups_formed > 0 and grouped.max_stage_width() > 1
    for window in (2, 3, 4):
        got = parallelize(prof, grouped, window=window)
        with oracles.reference_components():
            want = parallelize(prof, grouped, window=window)
        assert got[0].to_dict() == want[0].to_dict()
        assert got[1] == want[1]
        assert got[2] == want[2]


def test_stage_evaluator_detects_cycles():
    # a -> b -> c with a, c on GPU 0 and b on GPU 1: grouping a with c
    # puts b both downstream and upstream of the merged stage
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.1), ("b", "c", 0.1)]
    )
    prof = make_profile(g, num_gpus=2)
    schedule = build_singleton_schedule({"a": 0, "b": 1, "c": 0}, ["a", "b", "c"], 2)
    ev = StageGraphEvaluator(prof, schedule)
    assert ev.try_merge(0, 0, 1, ("a", "c")) is None


# ---------------------------------------------------------------------------
# End-to-end: the schedulers are bit-identical to runs on the oracles

DIFF_ALGOS = ["ios", "hios-lp", "hios-mr", "hios-lp-ls"]


@settings(max_examples=30, deadline=None)
@given(
    profile=dag_profiles(),
    alg=st.sampled_from(DIFF_ALGOS),
    hetero=st.booleans(),
)
def test_fast_schedulers_match_reference(profile, alg, hetero):
    """Satellite property: production vs. reference components on
    random DAGs, all four algorithms, blocking and non-blocking,
    homogeneous and heterogeneous speeds."""
    if hetero:
        speeds = tuple(1.0 + 0.5 * g for g in range(profile.num_gpus))
        profile = replace(profile, gpu_speeds=speeds)
    fast = schedule_graph(profile, alg)
    with oracles.reference_components():
        ref = schedule_graph(profile, alg)
    assert fast.schedule.to_dict() == ref.schedule.to_dict()
    assert abs(fast.latency - ref.latency) <= 1e-12
    assert fast.latency == ref.latency  # the engine's actual contract


def test_fast_matches_reference_on_larger_fixed_seeds():
    for seed in range(3):
        prof = random_dag_profile(seed=seed, num_gpus=4, num_ops=60, num_layers=8)
        for alg in DIFF_ALGOS:
            fast = schedule_graph(prof, alg)
            with oracles.reference_components():
                ref = schedule_graph(prof, alg)
            assert fast.latency == ref.latency
            assert fast.schedule.to_dict() == ref.schedule.to_dict()


def test_stats_counters_present_and_plausible():
    prof = random_dag_profile(seed=2, num_gpus=3, num_ops=40, num_layers=6)
    res = schedule_graph(prof, "hios-lp")
    for key in EvalCounters().to_stats():
        assert key in res.stats
        assert res.stats[key] >= 0
    assert res.stats["suffix_replays"] > 0  # the replayer actually ran
    assert res.stats["window_delta_evals"] > 0  # Alg. 2 used the delta path
    assert res.stats["window_skips"] > 0  # and skipped candidates unpriced
    assert res.stats["window_delay_skips"] > 0  # some as delaying the path
    assert "phase_times" in res.stats
    assert "spatial_mapping" in res.stats["phase_times"]


@pytest.mark.parametrize("alg", ["hios-lp", "hios-mr", "inter-lp", "inter-mr", "hios-lp-ls"])
def test_reference_runs_keep_no_counters(alg):
    """The oracles keep no counters: every engine seam each HIOS entry
    evaluates through was swapped out."""
    prof = random_dag_profile(seed=2, num_gpus=3, num_ops=40, num_layers=6)
    with oracles.reference_components():
        ref = schedule_graph(prof, alg)
    for key in (
        "evals", "suffix_replays", "window_delta_evals", "window_skips",
        "window_delay_skips", "soa_evals",
    ):
        assert ref.stats[key] == 0, key


# ---------------------------------------------------------------------------
# Bitset closure on OpGraph


def test_closure_matches_bfs_reference():
    g = _rand_graph(seed=31, n=24)
    names = g.names
    for u in names:
        for v in names:
            assert g.reachable(u, v) == g._reachable_bfs(u, v) or u == v
    rng = random.Random(5)
    for _ in range(60):
        group = rng.sample(names, rng.randint(2, 5))
        assert g.independent(group) == g._independent_bfs(group)


def test_closure_invalidated_by_mutation():
    g = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.0)])
    assert g.reachable("a", "b")
    assert not g.reachable("a", "c")
    g.add_edge("b", "c", 0.0)
    assert g.reachable("a", "c")


def test_reachable_falls_back_on_cyclic_graph():
    g = OpGraph()
    g.add_operator("a", cost=1.0)
    g.add_operator("b", cost=1.0)
    g.add_edge("a", "b", 0.0)
    g.add_edge("b", "a", 0.0)  # cycle: closure unavailable, BFS must serve
    assert g.reachable("a", "b")
    assert g.reachable("b", "a")
    assert not g.independent(["a", "b"])


# ---------------------------------------------------------------------------
# stage_time memoization


def test_stage_time_memo_hits_and_matches():
    prof = random_dag_profile(seed=8, num_gpus=2, num_ops=20, num_layers=4)
    names = prof.graph.names[:3]
    uncached = replace(prof, stage_time_cache=False)
    a = prof.stage_time(names, gpu=1)
    b = prof.stage_time(tuple(names), gpu=1)  # list/tuple key-compatible
    assert a == b == uncached.stage_time(names, gpu=1)
    assert prof.stage_time_cache_hits == 1


def test_stage_time_memo_invalidated_by_graph_mutation():
    prof = random_dag_profile(seed=8, num_gpus=2, num_ops=20, num_layers=4)
    name = prof.graph.names[0]
    before = prof.stage_time([name])
    op = prof.graph.operator(name)
    prof.graph.replace_operator(replace(op, cost=op.cost * 2))
    after = prof.stage_time([name])
    assert after == pytest.approx(before * 2)


# ---------------------------------------------------------------------------
# parallelize validate knob + local-search fixed point


def test_parallelize_validate_knob_equivalent():
    prof = random_dag_profile(seed=12, num_gpus=2, num_ops=30, num_layers=5)
    res = schedule_graph(prof, "inter-lp")
    a = parallelize(prof, res.schedule, validate=True)
    b = parallelize(prof, res.schedule, validate=False)
    assert a[1] == b[1]
    assert a[0].to_dict() == b[0].to_dict()


def test_parallelize_validate_rejects_corrupt_schedule():
    prof = random_dag_profile(seed=12, num_gpus=2, num_ops=10, num_layers=3)
    schedule = build_singleton_schedule(
        {v: 0 for v in prof.graph.names[:-1]},  # one operator missing
        prof.graph.names[:-1],
        2,
    )
    with pytest.raises(Exception):
        parallelize(prof, schedule, validate=True)


def test_local_search_fast_reaches_same_fixed_point():
    """Satellite regression: removing the redundant post-move
    re-evaluation (and adding suffix replay) must not change the moves
    taken nor the fixed point reached."""
    for seed in (3, 5, 9):
        prof = random_dag_profile(seed=seed, num_gpus=3, num_ops=50, num_layers=6)
        order = priority_order(prof.graph)
        assignment = {v: i % 3 for i, v in enumerate(order)}
        fast = local_search_assignment(prof, assignment, order, max_rounds=6)
        with oracles.reference_components():
            ref = local_search_assignment(prof, assignment, order, max_rounds=6)
        assert fast == ref
        # the returned latency is exactly the latency of the returned
        # assignment (the old code recomputed it; the new code must not
        # drift from that value)
        refined, lat, _moves = fast
        assert lat == oracles.list_schedule_latency(
            prof.graph, refined, order, prof.num_gpus,
            send_blocking=prof.send_blocking, gpu_speeds=prof.gpu_speeds,
        )


def test_counters_shared_across_phases():
    counters = EvalCounters()
    prof = random_dag_profile(seed=4, num_gpus=2, num_ops=30, num_layers=5)
    order = priority_order(prof.graph)
    assignment = {v: i % 2 for i, v in enumerate(order)}
    local_search_assignment(prof, assignment, order, counters=counters)
    assert counters.evals > 0
    assert counters.suffix_replays > 0
    d = counters.to_stats()
    assert set(d) == {
        "evals",
        "suffix_replays",
        "window_delta_evals",
        "window_skips",
        "window_delay_skips",
        "soa_evals",
        "cache_hits",
    }


# ---------------------------------------------------------------------------
# soa_latency / evaluate_schedule (views over the stage DP) vs. the oracle


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("hetero", [False, True])
@pytest.mark.parametrize("alg", list(ALGORITHMS))
def test_soa_latency_matches_reference_evaluator(alg, blocking, hetero):
    """The stage DP must reproduce the oracle to the exact float on real
    scheduler output of every algorithm, across blocking and
    heterogeneous configurations: the latency the schedulers' final
    evaluations report, and every stage and operator start/finish time
    ``evaluate_schedule`` derives from the DP's start times."""
    prof = random_dag_profile(seed=9, num_gpus=3, num_ops=40, num_layers=6)
    prof = replace(prof, send_blocking=blocking)
    if hetero:
        prof = replace(prof, gpu_speeds=(1.0, 1.5, 0.75))
    schedule = schedule_graph(prof, alg).schedule
    counters = EvalCounters()
    got = soa_latency(prof, schedule, validate=True, counters=counters)
    want = oracles.evaluate_schedule(prof, schedule, validate=True)
    assert got == want.latency  # bit-identical, no tolerance
    assert counters.soa_evals == 1
    assert evaluate_schedule(prof, schedule) == want
