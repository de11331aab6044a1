"""The plan memo's fault-free trace: replays are invisible in every output.

A dispatch whose projected faults cannot fire before its plan's
fault-free trace ends reuses that trace instead of re-running the
engine.  These tests defeat the memo by patching the predicate to
``False`` and demand identical records and reports, count engine runs,
check that nothing mutates a shared trace, and check that the reports
do not depend on string hashing.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.serve import SCENARIOS, ServeConfig, TenantSpec, scenario_config, simulator
from repro.serve.simulator import ServeSimulator
from repro.substrate import MultiGpuEngine


def _churn_config(**overrides):
    """Rolling fail/repair under load with batching and elastic leases."""
    faults = []
    for i in range(1, 5):
        t = 300.0 * i + 37.0 * (i % 3)
        faults += [f"fail:{i % 4}@{t:.1f}", f"repair:{i % 4}@{t + 120.0:.1f}"]
    cfg = ServeConfig(
        tenants=(
            TenantSpec(name="search", model="chain12", rate_qps=90.0, deadline_ms=150.0),
            TenantSpec(
                name="feed", model="wide24", rate_qps=45.0, priority=1, deadline_ms=250.0
            ),
            TenantSpec(
                name="batch", model="deep40", rate_qps=22.5, priority=-1, deadline_ms=400.0
            ),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=1500.0,
        seed=0,
        max_batch=3,
        elastic=True,
        max_retries=3,
        retry_backoff_ms=4.0,
        faults=tuple(faults),
    )
    return replace(cfg, **overrides)


CONFIGS = {name: scenario_config(name) for name in sorted(SCENARIOS)}
CONFIGS["churn"] = _churn_config()
# a slowed GPU projects onto every lease that holds it: those dispatches
# can never replay, the rest still do
CONFIGS["churn-slow"] = _churn_config(faults=_churn_config().faults + ("slow:3@200x0.5",))


def _outputs(result):
    report = result.report.to_dict()
    report.pop("sched_ms")  # host wall-clock, the one non-reproducible field
    return report, [r.to_dict() for r in result.records]


def _count_engine_runs(monkeypatch):
    runs = []
    real = MultiGpuEngine.run

    def counting(self, graph, schedule, validate=True):
        runs.append(schedule)
        return real(self, graph, schedule, validate)

    monkeypatch.setattr(MultiGpuEngine, "run", counting)
    return runs


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_matches_execution(name, monkeypatch):
    cfg = CONFIGS[name]
    replayed = ServeSimulator(cfg).run()
    monkeypatch.setattr(simulator, "replays_fault_free", lambda plan, latency: False)
    executed = ServeSimulator(cfg).run()
    assert _outputs(replayed) == _outputs(executed)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_simulator_runs_twice(name):
    """Run state starts fresh; only the plan memo carries over.

    The second run plans nothing, so its reports differ only in the
    scheduling counters.
    """
    sim = ServeSimulator(CONFIGS[name])
    first = sim.run()
    first_report, first_records = _outputs(first)
    second_report, second_records = _outputs(sim.run())
    assert second_records == first_records
    assert _outputs(first)[1] == first_records  # the second run left them alone
    assert first_report.pop("sched_cache_misses") > 0
    assert second_report.pop("sched_cache_misses") == 0
    assert second_report == first_report


def test_churn_config_resizes_and_repairs():
    report = ServeSimulator(CONFIGS["churn"]).run().report
    assert report.elastic_grows + report.elastic_shrinks >= 10
    assert report.repairs >= 1
    assert report.batched >= 1
    assert report.failed == 0


def test_steady_state_runs_the_engine_once_per_plan(monkeypatch):
    runs = _count_engine_runs(monkeypatch)
    sim = ServeSimulator(scenario_config("steady-state"))
    report = sim.run().report
    assert report.completed > 4 * len(sim._schedules)
    assert len(runs) == len(sim._schedules)
    assert len({id(s) for s in runs}) == len(runs)


def test_defeated_memo_runs_the_engine_per_dispatch(monkeypatch):
    monkeypatch.setattr(simulator, "replays_fault_free", lambda plan, latency: False)
    runs = _count_engine_runs(monkeypatch)
    report = ServeSimulator(scenario_config("steady-state")).run().report
    assert len(runs) == report.completed


@pytest.mark.parametrize("name", ["churn", "churn-slow", "gpu-loss-recovery"])
def test_memoized_traces_are_never_mutated(name, monkeypatch):
    runs = _count_engine_runs(monkeypatch)
    sim = ServeSimulator(CONFIGS[name])
    result = sim.run()
    dispatches = sum(r.attempts for r in result.records if not r.batched_with)
    assert len(runs) < dispatches  # some dispatches replayed
    memo = [plan for plan in sim._schedules.values() if plan.trace is not None]
    assert memo
    for plan in memo:
        fresh = MultiGpuEngine(sim._base_engine).run(plan.profile.graph, plan.schedule)
        assert plan.trace.to_dict() == fresh.to_dict()
        assert plan.op_gpu == plan.schedule.assignment()


def test_reports_do_not_depend_on_string_hashing(tmp_path):
    """Resized segments' busy time is summed in trace order, not set order."""
    config = tmp_path / "churn.json"
    config.write_text(json.dumps(CONFIGS["churn"].to_dict()))
    src = str(Path(repro.__file__).resolve().parents[1])
    docs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--config", str(config), "--json",
             "--requests"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        doc = json.loads(proc.stdout)
        doc.pop("sched_ms")
        docs.append(doc)
    assert docs[0]["elastic_grows"] + docs[0]["elastic_shrinks"] >= 10
    assert docs[0] == docs[1]
