"""run_units: ordering, dedup, cache interplay, parallel dispatch."""

import io
import os

import pytest

from repro.sweep import (
    RandomDagSpec,
    ResultCache,
    SweepError,
    SweepProgress,
    WorkUnit,
    resolve_jobs,
    run_units,
)
import repro.sweep.executor as executor_mod

TINY = dict(num_ops=12, num_layers=4)


def unit(seed, algorithm="hios-lp", num_gpus=4):
    kwargs = (("window", 3),) if algorithm.startswith("hios") else ()
    return WorkUnit(
        figure="test",
        x=seed,
        instance=0,
        algorithm=algorithm,
        spec=RandomDagSpec(seed=seed, num_gpus=num_gpus, **TINY),
        schedule_kwargs=kwargs,
    )


class TestResolveJobs:
    def test_none_and_zero_mean_one_per_cpu(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_value_kept(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestSerial:
    def test_payloads_in_input_order(self):
        units = [unit(s) for s in (3, 1, 2)]
        payloads, stats = run_units(units, jobs=1)
        assert [set(p) for p in payloads] == [{"latency"}] * 3
        # order matches input, not key/dispatch order: re-running each
        # unit alone must reproduce its slot
        for u, p in zip(units, payloads):
            alone, _ = run_units([u], jobs=1)
            assert alone[0] == p
        assert (stats.total, stats.executed, stats.deduped) == (3, 3, 0)

    def test_identical_units_execute_once(self, monkeypatch):
        calls = []
        real = executor_mod.execute_unit

        def counting(u):
            calls.append(u)
            return real(u)

        monkeypatch.setattr(executor_mod, "execute_unit", counting)
        units = [unit(1), unit(1), unit(1)]
        payloads, stats = run_units(units, jobs=1)
        assert len(calls) == 1
        assert payloads[0] == payloads[1] == payloads[2]
        assert (stats.executed, stats.deduped) == (1, 2)

    def test_single_gpu_baseline_dedups_across_gpu_counts(self, monkeypatch):
        calls = []
        real = executor_mod.execute_unit

        def counting(u):
            calls.append(u)
            return real(u)

        monkeypatch.setattr(executor_mod, "execute_unit", counting)
        units = [unit(1, "sequential", num_gpus=g) for g in (2, 3, 4)]
        payloads, stats = run_units(units, jobs=1)
        assert len(calls) == 1
        assert payloads[0] == payloads[1] == payloads[2]
        assert stats.deduped == 2

    def test_worker_error_propagates(self):
        with pytest.raises(Exception, match="bogus"):
            run_units([unit(1, algorithm="bogus")], jobs=1)


class TestCacheInterplay:
    def test_warm_rerun_executes_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        units = [unit(s) for s in (1, 2)]
        cold, stats_cold = run_units(units, jobs=1, cache=cache)
        assert (stats_cold.executed, stats_cold.cache_hits) == (2, 0)

        monkeypatch.setattr(
            executor_mod,
            "execute_unit",
            lambda u: pytest.fail("warm run must not execute"),
        )
        warm, stats_warm = run_units(units, jobs=1, cache=ResultCache(tmp_path))
        assert warm == cold
        assert (stats_warm.executed, stats_warm.cache_hits) == (0, 2)

    def test_interrupted_sweep_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_units([unit(1)], jobs=1, cache=cache)  # the part that completed
        _, stats = run_units(
            [unit(1), unit(2)], jobs=1, cache=ResultCache(tmp_path)
        )
        assert (stats.cache_hits, stats.executed) == (1, 1)

    def test_corrupt_entry_reexecuted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, _ = run_units([unit(1)], jobs=1, cache=cache)
        cache.path_for(unit(1).key()).write_text("{broken")
        warm, stats = run_units([unit(1)], jobs=1, cache=ResultCache(tmp_path))
        assert warm == cold
        assert (stats.cache_hits, stats.executed) == (0, 1)


class TestParallel:
    def test_parallel_equals_serial(self):
        units = [unit(s, alg) for s in (1, 2) for alg in ("sequential", "hios-lp")]
        serial, _ = run_units(units, jobs=1)
        parallel, stats = run_units(units, jobs=3)
        assert parallel == serial
        assert stats.jobs == 3

    def test_parallel_populates_cache(self, tmp_path):
        units = [unit(s) for s in (1, 2, 3)]
        cold, _ = run_units(units, jobs=2, cache=ResultCache(tmp_path))
        warm, stats = run_units(units, jobs=2, cache=ResultCache(tmp_path))
        assert warm == cold
        assert (stats.cache_hits, stats.executed) == (3, 0)

    def test_worker_error_propagates(self):
        units = [unit(1), unit(2, algorithm="bogus"), unit(3)]
        with pytest.raises(Exception, match="bogus"):
            run_units(units, jobs=2)


def shared_spec_units():
    """Six units over two specs — three algorithms per spec, so the
    worker-side workload memo has two reuse opportunities per spec."""
    units = []
    for seed in (1, 2):
        spec = RandomDagSpec(seed=seed, num_gpus=4, **TINY)
        for alg in ("sequential", "inter-lp", "hios-lp"):
            kwargs = (("window", 3),) if alg == "hios-lp" else ()
            units.append(WorkUnit("test", seed, 0, alg, spec, kwargs))
    return units


def pin_batch_size(monkeypatch, size: int) -> None:
    """Replace the parallel path's auto-tuned batch size with ``size``."""
    monkeypatch.setattr(executor_mod, "_auto_batch_units", lambda *args: size)


class TestBatched:
    """The persistent-worker batched path: parity, counters, planning."""

    def test_inline_batched_path_parity_and_counters(self, monkeypatch):
        # cpu_count=1 caps workers at one, forcing the pool-free inline
        # batched path regardless of the machine running the tests
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        pin_batch_size(monkeypatch, 3)
        units = shared_spec_units()
        serial, _ = run_units(units, jobs=1)
        batched, stats = run_units(units, jobs=4)
        assert batched == serial
        assert stats.batches == 2  # one spec group per batch, kept whole
        assert stats.worker_workload_reuses == 4  # 2 reuses per 3-unit group

    def test_pool_path_parity_and_counters(self, monkeypatch):
        # pretend there are CPUs to spare so a real worker pool spins up
        # even on a single-core machine
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 4)
        pin_batch_size(monkeypatch, 3)
        units = shared_spec_units()
        serial, _ = run_units(units, jobs=1)
        pooled, stats = run_units(units, jobs=2)
        assert pooled == serial
        assert stats.batches == 2
        assert stats.worker_workload_reuses == 4

    def test_batch_units_one_matches_serial(self, monkeypatch):
        pin_batch_size(monkeypatch, 1)
        units = shared_spec_units()
        serial, _ = run_units(units, jobs=1)
        forced, stats = run_units(units, jobs=2)
        assert forced == serial
        assert stats.batches == len(units)  # every unit its own batch
        # reuse count is path-dependent here (workers persist across
        # singleton batches), so only parity and batching are pinned

    def test_missing_payload_raises_sweep_error(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        real = executor_mod.execute_batch

        def dropping(specs, items):
            results, reuses = real(specs, items)
            return results[:-1], reuses  # lose the last unit of the batch

        monkeypatch.setattr(executor_mod, "execute_batch", dropping)
        pin_batch_size(monkeypatch, 2)
        with pytest.raises(SweepError, match=r"1 of 2 units \(input indices 1\)"):
            run_units([unit(1), unit(2)], jobs=2)

    def test_plan_batches_keeps_spec_groups_whole(self):
        units = shared_spec_units()
        to_run = list(range(len(units)))
        batches = executor_mod._plan_batches(units, to_run, batch_size=2)
        # groups of 3 exceed batch_size but not 2x, so they stay whole
        assert batches == [[0, 1, 2], [3, 4, 5]]

    def test_plan_batches_splits_oversized_groups(self):
        spec = RandomDagSpec(seed=1, num_gpus=4, **TINY)
        units = [
            WorkUnit("test", 1, i, "hios-lp", spec, (("window", w),))
            for i, w in enumerate(range(1, 8))
        ]
        batches = executor_mod._plan_batches(units, list(range(7)), batch_size=2)
        # 7 > 2x2: cut into near-equal chunks, nothing dropped
        assert sorted(i for b in batches for i in b) == list(range(7))
        assert all(len(b) <= 3 for b in batches)


class TestProgress:
    def test_deterministic_lines(self):
        out = io.StringIO()
        progress = SweepProgress("fig8", 3, stream=out, eta=False)
        units = [unit(1), unit(1), unit(2)]
        run_units(units, jobs=1, progress=progress)
        lines = [line for line in out.getvalue().splitlines() if line]
        assert lines[-1].startswith("[fig8] 3/3 units (100%)")
        assert "1 deduped" in lines[-1]

    def test_disabled_progress_is_silent(self):
        out = io.StringIO()
        progress = SweepProgress("fig8", 1, stream=out, enabled=False)
        run_units([unit(1)], jobs=1, progress=progress)
        assert out.getvalue() == ""
