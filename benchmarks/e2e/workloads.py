"""The four end-to-end workloads: scheduling, sweeps and serving.

Each workload is an object whose constructor is the set-up (imports
done, inputs generated from the seed, profiles built) and whose
:meth:`run_round` performs one fixed round of library calls, timing each
operation and checking its output.  The harness (``child.py``) repeats
rounds until its time budget is spent.  Every round of a workload does
the same work, so each later round is checked against the first.

A round has a *cold* phase (the operation a user pays for without any
cache) and a *warm* phase (the same operation answered from a warm
content-addressed cache):

============  ===============================  =================================
workload      cold operation                   warm operation
============  ===============================  =================================
schedule      ``schedule_graph`` on a fresh    ``cached_schedule`` hit
              profile copy
sweep         ``run_units`` on a fresh         ``run_units`` on the filled cache
              ``ResultCache``
serve-ladder  ``ServeSimulator.run`` on a      the same run restarted on the
              fresh ``ScheduleCache``          filled schedule cache
serve-churn   as serve-ladder                  as serve-ladder
============  ===============================  =================================

The library is always called through its module attributes
(``api.schedule_graph``, ``executor.run_units``, ...) so the traced
pass's wrappers (``spans.py``) see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.core import api
from repro.experiments.realmodels import MODEL_BUILDERS
from repro.lint import lint_serve_report
from repro.models import randomdag
from repro.serve import simulator
from repro.serve.config import ServeConfig, TenantSpec
from repro.serve.zoo import zoo_profile
from repro.substrate.platform import dual_a40
from repro.substrate.profiler import PlatformProfiler
from repro.sweep import executor, schedcache
from repro.sweep.cache import ResultCache
from repro.sweep.units import RandomDagSpec, RealModelSpec, WorkUnit

#: Context-manager factory for the harness's own spans (``bench.*``);
#: a no-op outside the traced pass.
SpanFn = Callable[[str], AbstractContextManager[Any]]

#: Worker processes of the sweep workload, sized for a 2-core machine.
SWEEP_JOBS = 2

#: Latency limit on the simulated p99 of one ladder step (ms).
LADDER_P99_LIMIT_MS = 150.0

_MAX_ERRORS = 5


@dataclass
class Round:
    """What one round did: wall ms per operation, work done, failures."""

    cold_ms: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    work: int = 0  # items completed by the cold operations
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""  # sha256 of the round's canonical outputs

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(f"{what}: {why}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def digest(material: Any) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


class Workload:
    """Common shape: set-up in ``__init__``, one round per call."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self._scratch_dirs = 0

    def run_round(self, span: SpanFn) -> Round:
        raise NotImplementedError

    def sim_latencies(self) -> list[float]:
        """The simulated latencies (ms) the first round produced."""
        raise NotImplementedError

    def sim_metrics(self) -> dict[str, float]:
        """Simulated per-layer values (serving only)."""
        return {}

    def _scratch(self, kind: str) -> Path:
        """A fresh cache directory for one round."""
        self._scratch_dirs += 1
        return self.tmp / f"{kind}-{self._scratch_dirs}"


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

#: The paper's real models, and two contrast models, at their default
#: and a large input size.
REAL_CASES: tuple[tuple[str, int], ...] = (
    ("inception_v3", 299),
    ("inception_v3", 1024),
    ("nasnet", 331),
    ("nasnet", 1024),
    ("resnet50", 224),
    ("resnet50", 1024),
    ("randwire", 224),
    ("randwire", 1024),
)
#: Operator counts of the seeded random DAGs (one DAG per entry).
DAG_SIZES: tuple[int, ...] = (100, 110, 120, 130, 140, 150)
SCHEDULE_ALGORITHMS = ("hios-lp", "hios-mr")
WINDOW = 3


def _kwargs(algorithm: str) -> dict[str, int]:
    return {"window": WINDOW} if algorithm.startswith("hios") else {}


class ScheduleWorkload(Workload):
    """Cold ``schedule_graph`` calls, then warm schedule-cache hits.

    Every real case runs on 2 and 4 GPUs and every seeded DAG on 2-4
    GPUs, each with HIOS-LP and HIOS-MR, plus one single-GPU IOS call on
    the first real case: 45 calls per round with the defaults.  A count
    of 5 mod 10 puts the nearest-rank p50 and p90 of the pooled samples
    in the middle of one call's samples, not on the edge between two
    calls of different cost.
    """


    def __init__(
        self,
        seed: int,
        tmp: Path,
        real_cases: tuple[tuple[str, int], ...] = REAL_CASES,
        dag_sizes: tuple[int, ...] = DAG_SIZES,
        warm_passes: int = 10,
    ) -> None:
        super().__init__(tmp)
        self.warm_passes = warm_passes
        # (name, profile, algorithm) of every call in a round
        self.jobs: list[tuple[str, Any, str]] = []
        for model, size in real_cases:
            graph = MODEL_BUILDERS[model](size)
            for gpus in (2, 4):
                profile = PlatformProfiler(dual_a40(gpus)).profile(graph)
                self._add(f"{model}@{size}/{gpus}gpu", profile, SCHEDULE_ALGORITHMS)
        rng = random.Random(f"{seed}:schedule")
        for i, ops in enumerate(dag_sizes):
            gpus = 2 + i % 3
            profile = randomdag.random_dag_profile(
                seed=rng.randrange(2**31), num_ops=ops, num_gpus=gpus
            )
            self._add(f"dag{ops}/{gpus}gpu", profile, SCHEDULE_ALGORITHMS)
        self.jobs.append((f"{self.jobs[0][0]} ios", self.jobs[0][1], "ios"))
        # job name -> (schedule, latency) of the first round
        self.reference: dict[str, tuple[Any, float]] = {}

    def _add(self, name: str, profile: Any, algorithms: tuple[str, ...]) -> None:
        self.jobs += [(f"{name} {alg}", profile, alg) for alg in algorithms]

    def run_round(self, span: SpanFn) -> Round:
        out = Round()
        results: dict[str, Any] = {}
        for name, base, alg in self.jobs:
            with span("bench.prepare"):
                profile = replace(base)  # fresh stage-time memo: a cold call
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = api.schedule_graph(profile, alg, **_kwargs(alg))
            except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                out.fail(name, _error(exc))
                continue
            out.cold_ms.append(_ms_since(t0))
            out.work += 1
            with span("bench.check"):
                why = self._check_cold(name, base.graph, result)
            if why:
                out.fail(name, why)
            else:
                results[name] = result

        cache = schedcache.ScheduleCache(self._scratch("schedcache"))
        warm_jobs = [(name, base, alg) for name, base, alg in self.jobs if name in results]
        for name, base, alg in warm_jobs:
            key = schedcache.schedule_key(base, alg, _kwargs(alg))
            cache.put_schedule(key, results[name])
        for _ in range(self.warm_passes):
            for name, base, alg in warm_jobs:
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    warm, hit = schedcache.cached_schedule(
                        base, alg, cache=cache, **_kwargs(alg)
                    )
                except Exception as exc:  # noqa: BLE001
                    out.fail(f"{name} warm", _error(exc))
                    continue
                out.warm_ms.append(_ms_since(t0))
                cold = results[name]
                if not hit:
                    out.fail(f"{name} warm", "schedule-cache miss")
                elif warm.schedule != cold.schedule or warm.latency != cold.latency:
                    out.fail(f"{name} warm", "hit differs from the cold result")
        with span("bench.cleanup"):
            shutil.rmtree(cache.root, ignore_errors=True)
        out.digest = digest(
            [[name, r.schedule.to_dict(), r.latency] for name, r in sorted(results.items())]
        )
        return out

    def _check_cold(self, name: str, graph: Any, result: Any) -> str:
        ref = self.reference.get(name)
        if ref is None:
            try:
                result.schedule.validate(graph)
            except Exception as exc:  # noqa: BLE001
                return _error(exc)
            self.reference[name] = (result.schedule, result.latency)
            return ""
        if result.schedule != ref[0] or result.latency != ref[1]:
            return "schedule or latency differs from round 1"
        return ""

    def sim_latencies(self) -> list[float]:
        return [latency for _, latency in self.reference.values()]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_ALGORITHMS = ("sequential", "ios", "inter-lp", "inter-mr", "hios-mr", "hios-lp")
#: IOS in its beam-pruned mode: the exact DP costs 0.3-0.8 s per DAG,
#: varying with the DAG's width, and would make the pass time a
#: measurement of IOS alone.
SWEEP_KWARGS: dict[str, tuple[tuple[str, Any], ...]] = {"ios": (("mode", "beam"),)}
#: Engine-measured real-model units: the engine runs inside the workers.
MEASURED_CASES: tuple[tuple[str, int], ...] = (("inception_v3", 299), ("resnet50", 224))


#: DAG counts of a round's five sweeps: nested prefixes of one seeded
#: list of DAGs, so the sweeps differ in size and, as in the schedule
#: workload, p50 and p90 fall in the middle of one sweep's samples.
SWEEP_SIZES: tuple[int, ...] = (2, 4, 6, 8, 10)


class SweepWorkload(Workload):
    """Seeded random-DAG design-space slices through ``run_units``.

    Each sweep is GPU counts x windows x algorithms on each of its DAGs,
    plus the engine-measured real-model units; single-GPU and window-free
    algorithms repeat across the grid, as in the figure sweeps, so the
    executor's dedup has work to do.  A sweep runs cold on a fresh
    ``ResultCache`` and then ``warm_passes`` times over the filled cache.
    """

    def __init__(
        self,
        seed: int,
        tmp: Path,
        sweep_sizes: tuple[int, ...] = SWEEP_SIZES,
        dag_ops: int = 80,
        measured_cases: tuple[tuple[str, int], ...] = MEASURED_CASES,
        warm_passes: int = 8,
    ) -> None:
        super().__init__(tmp)
        self.warm_passes = warm_passes
        rng = random.Random(f"{seed}:sweep")
        grids = []
        for d in range(max(sweep_sizes)):
            dag_seed = rng.randrange(2**31)
            grid: list[WorkUnit] = []
            for gpus in (2, 4):
                spec = RandomDagSpec(seed=dag_seed, num_gpus=gpus, num_ops=dag_ops)
                for window in (2, 3):
                    for alg in SWEEP_ALGORITHMS:
                        kwargs = (
                            (("window", window),)
                            if alg.startswith("hios")
                            else SWEEP_KWARGS.get(alg, ())
                        )
                        grid.append(WorkUnit("e2e", (gpus, window), d, alg, spec, kwargs))
            grids.append(grid)
        measured: list[WorkUnit] = []
        for model, size in measured_cases:
            spec_m = RealModelSpec(model=model, input_size=size)
            for alg in ("sequential", "hios-lp"):
                kwargs = (("window", WINDOW),) if alg == "hios-lp" else ()
                measured.append(WorkUnit("e2e", model, 0, alg, spec_m, kwargs, kind="measured"))
        self.sweeps = [[u for g in grids[:k] for u in g] + measured for k in sweep_sizes]
        self.distinct = [len({u.key() for u in units}) for units in self.sweeps]
        # first round's payloads, by sweep
        self.reference: dict[int, list[dict[str, float]]] = {}

    def run_round(self, span: SpanFn) -> Round:
        out = Round()
        outputs = []
        for i, units in enumerate(self.sweeps):
            what = f"sweep {i + 1}"
            cache = ResultCache(self._scratch("results"))
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                payloads, stats = executor.run_units(units, jobs=SWEEP_JOBS, cache=cache)
            except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                out.fail(f"{what} cold", _error(exc))
                continue
            out.cold_ms.append(_ms_since(t0))
            out.work += stats.executed
            outputs.append(payloads)
            with span("bench.check"):
                why = self._check(i, stats.executed, payloads)
            if why:
                out.fail(f"{what} cold", why)
            for _ in range(self.warm_passes):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    warm, warm_stats = executor.run_units(units, jobs=SWEEP_JOBS, cache=cache)
                except Exception as exc:  # noqa: BLE001
                    out.fail(f"{what} warm", _error(exc))
                    continue
                out.warm_ms.append(_ms_since(t0))
                if warm_stats.executed:
                    out.fail(f"{what} warm", f"executed {warm_stats.executed} units")
                elif warm != payloads:
                    out.fail(f"{what} warm", "payloads differ from the cold pass")
            with span("bench.cleanup"):
                shutil.rmtree(cache.root, ignore_errors=True)
        out.digest = digest(outputs)
        return out

    def _check(self, i: int, executed: int, payloads: list[dict[str, float]]) -> str:
        if executed != self.distinct[i]:
            return f"executed {executed} of {self.distinct[i]} units"
        ref = self.reference.get(i)
        if ref is None:
            bad = [p for p in payloads if not all(math.isfinite(v) for v in p.values())]
            if bad:
                return f"non-finite payload {bad[0]}"
            self.reference[i] = payloads
            return ""
        return "" if payloads == ref else "payloads differ from round 1"

    def sim_latencies(self) -> list[float]:
        """Unit latencies of the largest sweep, which holds every DAG."""
        largest = self.reference.get(len(self.sweeps) - 1, [])
        return [p["latency"] if "latency" in p else p["measured_ms"] for p in largest]


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

#: The 3-tenant mix at ladder step x1: (tenant, model, qps, priority, deadline ms).
TENANT_MIX = (
    ("search", "chain12", 40.0, 0, 150.0),
    ("feed", "wide24", 20.0, 1, 250.0),
    ("batch", "deep40", 10.0, -1, 400.0),
)

# report fields that hold host wall time or differ between a cold run
# and its warm restart by design
_UNSTABLE_FIELDS = ("sched_ms", "sched_cache_hits", "sched_cache_misses")


def _outcome(result: Any) -> dict[str, Any]:
    """The deterministic part of a serving run: report and records."""
    report = result.report.to_dict()
    for key in _UNSTABLE_FIELDS:
        report.pop(key)
    return {"report": report, "records": [r.to_dict() for r in result.records]}


class ServeWorkload(Workload):
    """Serving runs over fixed configs: cold, then restarted warm."""

    def __init__(self, tmp: Path, configs: list[ServeConfig]) -> None:
        super().__init__(tmp)
        self.configs = configs
        for cfg in configs:  # build the zoo graphs and profiles up front
            for tenant in cfg.tenants:
                for k in range(1, cfg.num_gpus + 1):
                    zoo_profile(tenant.model, k)
        # first round's cold results and their deterministic outcomes, by config
        self.reference: dict[int, Any] = {}
        self._outcomes: dict[int, dict[str, Any]] = {}

    def run_round(self, span: SpanFn) -> Round:
        out = Round()
        cache = schedcache.ScheduleCache(self._scratch("schedcache"))
        first = not self.reference
        outcomes: list[dict[str, Any]] = []
        for phase in ("cold", "warm"):
            for i, cfg in enumerate(self.configs):
                what = f"{phase} run {i + 1}"
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = simulator.ServeSimulator(cfg, sched_cache=cache).run()
                except Exception as exc:  # noqa: BLE001
                    out.fail(what, _error(exc))
                    continue
                ms = _ms_since(t0)
                if phase == "cold":
                    out.cold_ms.append(ms)
                    out.work += result.report.arrivals
                else:
                    out.warm_ms.append(ms)
                with span("bench.check"):
                    outcome = _outcome(result)
                    why = self._check(i, result, outcome, record=first and phase == "cold")
                if why:
                    out.fail(what, why)
                if phase == "cold":
                    outcomes.append(outcome)
        with span("bench.cleanup"):
            shutil.rmtree(cache.root, ignore_errors=True)
        out.digest = digest(outcomes)
        return out

    def _check(self, i: int, result: Any, outcome: dict[str, Any], record: bool) -> str:
        doc = result.report.to_dict()
        doc["requests"] = outcome["records"]
        lint = lint_serve_report(doc)
        if not lint.ok:
            return "; ".join(d.message for d in lint.errors[:3])
        if record:
            self.reference[i] = result
            self._outcomes[i] = outcome
            return ""
        if outcome != self._outcomes.get(i):
            return "counters or records differ from the first run"
        return ""

    def _completed(self) -> list[Any]:
        return [
            r for res in self.reference.values() for r in res.records if r.status == "completed"
        ]

    def sim_latencies(self) -> list[float]:
        return [r.latency_ms for r in self._completed()]

    def sim_metrics(self) -> dict[str, float]:
        reports = [res.report for res in self.reference.values()]
        records = [r for res in self.reference.values() for r in res.records]
        arrivals = sum(r.arrivals for r in reports)
        missed = sum(
            r.shed_queue_full + r.shed_deadline + r.failed + r.deadline_misses
            for r in reports
        )
        latencies = [r.latency_ms for r in self._completed()]
        waits = [
            r.dispatched_ms - r.arrival_ms for r in records if r.dispatched_ms is not None
        ]
        leaders = [r.batch for r in records if r.dispatched_ms is not None and not r.batched_with]
        return {
            "serve.p50_ms": percentile(latencies, 50),
            "serve.p99_ms": percentile(latencies, 99),
            "serve.slo_miss_frac": missed / arrivals if arrivals else 0.0,
            "serve.queue_wait_ms_p50": percentile(waits, 50),
            "serve.queue_wait_ms_p99": percentile(waits, 99),
            "serve.batch_size_mean": sum(leaders) / len(leaders) if leaders else 0.0,
            "serve.retries": sum(r.retries for r in reports),
            "serve.repairs": sum(r.repairs for r in reports),
            "serve.displaced": sum(r.displaced for r in reports),
            "serve.elastic_resizes": sum(r.elastic_grows + r.elastic_shrinks for r in reports),
            "serve.warm_starts": sum(r.warm_starts for r in reports),
            "serve.revived": sum(r.revived for r in reports),
            "serve.degraded_dispatches": sum(r.degraded_dispatches for r in reports),
        }


def _tenants(
    rng: random.Random, scale: float, horizon_ms: float, bursts: tuple[float, ...] = ()
) -> tuple[TenantSpec, ...]:
    """The tenant mix at ``scale`` times its base rates, over the horizon.

    Each tenant gets exactly rate x horizon requests at seeded uniform
    times, a Poisson process conditioned on its count: a seed changes
    when requests arrive, not how many.  ``bursts`` go to the batch
    tenant.
    """
    tenants = []
    for name, model, qps, priority, deadline in TENANT_MIX:
        count = round(qps * scale * horizon_ms / 1000.0)
        times = [rng.uniform(0.0, horizon_ms) for _ in range(count)]
        if name == "batch":
            times += bursts
        tenants.append(
            TenantSpec(
                name=name,
                model=model,
                arrivals_ms=tuple(sorted(times)),
                priority=priority,
                deadline_ms=deadline,
            )
        )
    return tuple(tenants)


LADDER_STEPS = 5


class LadderWorkload(ServeWorkload):
    """A fixed rate ladder (x1 ... x5 of the tenant mix) on a healthy pool."""


    def __init__(
        self, seed: int, tmp: Path, horizon_ms: float = 4000.0, steps: int = LADDER_STEPS
    ) -> None:
        rng = random.Random(f"{seed}:ladder")
        configs = [
            ServeConfig(
                tenants=_tenants(rng, float(k), horizon_ms),
                num_gpus=4,
                gpus_per_query=2,
                horizon_ms=horizon_ms,
                seed=seed,
                max_batch=4,
            )
            for k in range(1, steps + 1)
        ]
        super().__init__(tmp, configs)

    def sim_metrics(self) -> dict[str, float]:
        out = super().sim_metrics()
        offered = sum(qps for _, _, qps, _, _ in TENANT_MIX)
        capacity = 0.0
        for k in range(1, LADDER_STEPS + 1):
            result = self.reference.get(k - 1)
            report = result.report if result is not None else None
            out[f"serve.ladder.x{k}.p99_ms"] = report.p99_ms if report else 0.0
            if (
                report is not None
                and report.p99_ms <= LADDER_P99_LIMIT_MS
                and report.shed_queue_full + report.shed_deadline == 0
                and report.failed == 0
                and report.deadline_misses == 0
            ):
                capacity = offered * k
        out["serve.capacity_qps"] = capacity
        return out


#: Simulated lengths of a round's five churn runs (ms): the fault list
#: grows with the run, and p50 and p90 fall in the middle of one run's
#: samples.
CHURN_HORIZONS_MS: tuple[float, ...] = (4000.0, 6000.0, 8000.0, 10000.0, 12000.0)


def _churn_config(seed: int, horizon_ms: float) -> ServeConfig:
    """The tenant mix at x1.5 under rolling GPU failures, with bursts.

    The GPUs fail in turn, one every 300-900 ms (one jittered 600 ms slot
    per failure), and each returns 150 ms later, so at most one GPU is
    down at a time; a burst of 8 deep40 requests lands in every jittered
    2 s slot.
    """
    rng = random.Random(f"{seed}:churn:{horizon_ms}")
    faults: list[str] = []
    for i in range(1, int(horizon_ms // 600.0)):
        t = 600.0 * i + rng.uniform(-150.0, 150.0)
        faults += [f"fail:{i % 4}@{t:.3f}", f"repair:{i % 4}@{t + 150.0:.3f}"]
    bursts: list[float] = []
    for j in range(1, int(horizon_ms // 2000.0)):
        start = 2000.0 * j + rng.uniform(-500.0, 500.0)
        bursts += [start + 2.0 * i for i in range(8)]
    return ServeConfig(
        tenants=_tenants(rng, 1.5, horizon_ms, tuple(bursts)),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=horizon_ms,
        seed=seed,
        max_batch=3,
        elastic=True,
        max_retries=3,
        retry_backoff_ms=4.0,
        faults=tuple(faults),
    )


class ChurnWorkload(ServeWorkload):
    """Serving runs of increasing length under rolling failures and repairs."""

    def __init__(
        self, seed: int, tmp: Path, horizons_ms: tuple[float, ...] = CHURN_HORIZONS_MS
    ) -> None:
        super().__init__(tmp, [_churn_config(seed, h) for h in horizons_ms])


WORKLOADS: dict[str, type[Workload]] = {
    "schedule": ScheduleWorkload,
    "sweep": SweepWorkload,
    "serve-ladder": LadderWorkload,
    "serve-churn": ChurnWorkload,
}
