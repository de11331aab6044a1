"""ScheduleCache: keying, round-trip bit-identity, defensive reads,
uncacheable profiles, and kind-scoped maintenance alongside the sweep
cache in one shared tree."""

import json
from dataclasses import replace

import pytest

from repro.core import Operator, schedule_graph
from repro.costmodel.concurrency import (
    MaxConcurrencyModel,
    SaturationConcurrencyModel,
    SumConcurrencyModel,
    TableConcurrencyModel,
)
from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler
from repro.models import random_dag_profile
from repro.serve.zoo import MODEL_ZOO, zoo_profile
from repro.sweep import (
    ResultCache,
    ScheduleCache,
    cached_schedule,
    schedule_key,
)
from repro.sweep.cache import CACHE_FORMAT
from repro.sweep.schedcache import (
    SCHED_CACHE_FORMAT,
    SCHED_CACHE_KIND,
    concurrency_fingerprint,
)

from ..oracles import profile_fingerprint
from ..oracles import schedule_key as oracle_key


@pytest.fixture(scope="module")
def profile():
    return random_dag_profile(seed=5, num_ops=24, num_layers=4, num_gpus=2)


class TestKeying:
    def test_key_is_stable(self, profile):
        assert schedule_key(profile, "hios-lp", {"window": 3}) == schedule_key(
            profile, "hios-lp", {"window": 3}
        )

    def test_key_separates_algorithm_kwargs_and_profile(self, profile):
        base = schedule_key(profile, "hios-lp", {"window": 3})
        assert base != schedule_key(profile, "hios-mr", {"window": 3})
        assert base != schedule_key(profile, "hios-lp", {"window": 4})
        assert base != schedule_key(replace(profile, num_gpus=3), "hios-lp", {"window": 3})
        assert base != schedule_key(
            replace(profile, gpu_speeds=(1.0, 0.5)), "hios-lp", {"window": 3}
        )

    def test_concurrency_models_fingerprint_distinctly(self):
        prints = [
            concurrency_fingerprint(m)
            for m in (
                MaxConcurrencyModel(),
                SumConcurrencyModel(),
                SaturationConcurrencyModel(0.06),
                SaturationConcurrencyModel(0.2),
                TableConcurrencyModel({frozenset({"a", "b"}): 1.5}),
            )
        ]
        assert None not in prints
        assert len({json.dumps(p, sort_keys=True) for p in prints}) == len(prints)

    def test_unknown_concurrency_model_is_uncacheable(self, profile):
        class Custom(SaturationConcurrencyModel):
            """Subclass may override duration(): must not be trusted."""

        weird = replace(profile, concurrency=Custom(0.06))
        assert concurrency_fingerprint(weird.concurrency) is None
        assert profile_fingerprint(weird) is None
        assert schedule_key(weird, "hios-lp") is None

    def test_table_fallback_must_be_cacheable_too(self):
        class Custom(MaxConcurrencyModel):
            pass

        model = TableConcurrencyModel({}, fallback=Custom())
        assert concurrency_fingerprint(model) is None

    def test_non_json_kwargs_are_uncacheable(self, profile):
        assert schedule_key(profile, "hios-lp", {"window": object()}) is None


#: the end-to-end benchmark's real-model cases
REAL_CASES = [
    ("inception_v3", 299), ("inception_v3", 1024), ("nasnet", 331), ("nasnet", 1024),
    ("resnet50", 224), ("resnet50", 1024), ("randwire", 224), ("randwire", 1024),
]
KWARGS = [None, {}, {"window": 3}, {"window": 4, "mode": "beam"}, {"seed": {"b": [1, 2.5]}}]
CONCURRENCY = {
    "max": MaxConcurrencyModel(),
    "sum": SumConcurrencyModel(),
    "saturation": SaturationConcurrencyModel(0.1, 0.02),
    "table": TableConcurrencyModel({frozenset({"x", "y"}): 1.5, frozenset({"z"}): 0.5}),
    "table-over-max": TableConcurrencyModel(
        {frozenset({"x"}): 2.0}, fallback=MaxConcurrencyModel()
    ),
}


def matching_key(profile, algorithm="hios-lp", kwargs=None):
    """The spliced key, asserted equal to the whole-document oracle's."""
    key = schedule_key(profile, algorithm, kwargs)
    assert key == oracle_key(profile, algorithm, kwargs)
    return key


class TestKeyMatchesOracle:
    """``schedule_key`` splices the per-version encoding of the graph
    into the per-call fields; every key must equal the digest of the
    whole document encoded at once, so no on-disk entry changes name."""

    @pytest.mark.parametrize("gpus", [1, 2, 4])
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_zoo_models(self, model, gpus):
        profile = zoo_profile(model, gpus)
        for kwargs in KWARGS:
            assert matching_key(profile, "hios-mr", kwargs) is not None

    @pytest.mark.parametrize("model,size", REAL_CASES)
    def test_real_models(self, model, size):
        profile = default_profiler(num_gpus=2).profile(MODEL_BUILDERS[model](size))
        assert matching_key(profile, "hios-lp", {"window": 3}) is not None
        assert matching_key(replace(profile, num_gpus=4), "hios-mr", {"window": 3}) is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, seed):
        profile = random_dag_profile(seed=seed, num_ops=40 + 10 * seed, num_gpus=2 + seed % 3)
        keys = {
            matching_key(profile, alg, kwargs) for alg in ("ios", "hios-lp") for kwargs in KWARGS
        }
        assert len(keys) == 2 * (len(KWARGS) - 1)  # None and {} are one key

    def test_profile_fields(self, profile):
        variants = [
            profile,
            replace(profile, gpu_speeds=(1.0, 0.5)),
            replace(profile, gpu_speeds=(2, 1)),
            replace(profile, max_streams=3),
            replace(profile, send_blocking=False),
            replace(profile, num_gpus=3),
        ]
        variants += [replace(profile, concurrency=model) for model in CONCURRENCY.values()]
        keys = [matching_key(p, "hios-lp", {"window": 3}) for p in variants]
        assert len(set(keys)) == len(keys)

    def test_a_model_mutated_in_place_changes_the_key(self, profile):
        model = TableConcurrencyModel({frozenset({"x"}): 1.0})
        p = replace(profile, concurrency=model)
        before = matching_key(p)
        model.record(["y", "z"], 2.0)
        assert matching_key(p) != before

    @pytest.mark.parametrize("mutation", ["add_edge", "set_transfer", "replace_operator"])
    def test_a_mutated_graph_gets_its_new_key(self, mutation):
        profile = random_dag_profile(seed=11, num_ops=24, num_gpus=2)
        graph = profile.graph
        before = matching_key(profile, "hios-lp", {"window": 3})
        order = graph.topological_order()
        if mutation == "add_edge":
            u, v = next(
                (u, v) for i, u in enumerate(order) for v in order[i + 1:]
                if not graph.has_edge(u, v)
            )
            graph.add_edge(u, v, 0.125)
        elif mutation == "set_transfer":
            u, v, w = graph.edges()[0]
            graph.set_transfer(u, v, w + 0.5)
        else:
            op = graph.operator(order[0])
            graph.replace_operator(Operator(op.name, cost=op.cost * 2, occupancy=op.occupancy))
        after = matching_key(profile, "hios-lp", {"window": 3})
        assert after is not None and after != before

    def test_non_finite_weights_are_uncacheable(self, profile):
        graph = profile.graph.copy()
        weird = replace(profile, graph=graph)
        assert matching_key(weird) is not None
        graph.replace_operator(Operator(graph.names[0], cost=float("inf")))
        assert matching_key(weird) is None
        assert matching_key(weird, "hios-mr") is None  # memoized as uncacheable


class TestRoundtrip:
    def test_miss_then_hit_is_bit_identical(self, profile, tmp_path):
        cache = ScheduleCache(tmp_path)
        cold, hit0 = cached_schedule(profile, "hios-lp", cache=cache, window=3)
        warm, hit1 = cached_schedule(profile, "hios-lp", cache=cache, window=3)
        assert (hit0, hit1) == (False, True)
        assert warm.schedule == cold.schedule
        assert warm.latency == cold.latency  # exact float replay
        assert warm.scheduling_time == 0.0
        assert warm.stats == {"sched_cache": "hit"}
        # the replay equals a fresh scheduler run, not just the cold one
        fresh = schedule_graph(profile, "hios-lp", window=3)
        assert warm.schedule == fresh.schedule
        assert warm.latency == fresh.latency

    def test_entry_is_a_self_describing_document(self, profile, tmp_path):
        cache = ScheduleCache(tmp_path)
        cached_schedule(profile, "hios-mr", cache=cache)
        key = schedule_key(profile, "hios-mr")
        doc = json.loads(cache.path_for(key).read_text())
        assert doc["format"] == SCHED_CACHE_FORMAT
        assert doc["kind"] == SCHED_CACHE_KIND
        assert doc["algorithm"] == "hios-mr"
        assert doc["meta"]["scheduling_time_s"] >= 0.0
        assert isinstance(doc["payload"]["schedule"], dict)

    def test_no_cache_is_plain_schedule_graph(self, profile):
        result, hit = cached_schedule(profile, "hios-lp", window=3)
        assert hit is False
        fresh = schedule_graph(profile, "hios-lp", window=3)
        assert result.schedule == fresh.schedule
        assert result.latency == fresh.latency

    def test_uncacheable_profile_writes_nothing(self, profile, tmp_path):
        class Custom(SaturationConcurrencyModel):
            pass

        weird = replace(profile, concurrency=Custom(0.06))
        cache = ScheduleCache(tmp_path)
        _, hit0 = cached_schedule(weird, "hios-lp", cache=cache)
        _, hit1 = cached_schedule(weird, "hios-lp", cache=cache)
        assert (hit0, hit1) == (False, False)
        assert cache.stats()["entries"] == 0


class TestDefensiveReads:
    def seed(self, profile, tmp_path):
        cache = ScheduleCache(tmp_path)
        cached_schedule(profile, "hios-lp", cache=cache)
        return cache, schedule_key(profile, "hios-lp")

    def test_garbage_bytes_are_a_miss(self, profile, tmp_path):
        cache, key = self.seed(profile, tmp_path)
        cache.path_for(key).write_text("{not json")
        assert cache.get_schedule(key) is None
        assert not cache.path_for(key).exists()

    def test_wrong_format_is_a_miss(self, profile, tmp_path):
        cache, key = self.seed(profile, tmp_path)
        doc = json.loads(cache.path_for(key).read_text())
        doc["format"] = CACHE_FORMAT  # a sweep entry is not a schedule
        cache.path_for(key).write_text(json.dumps(doc))
        assert cache.get_schedule(key) is None

    def test_malformed_schedule_payload_is_discarded(self, profile, tmp_path):
        # passes the shallow payload check but fails reconstruction
        cache, key = self.seed(profile, tmp_path)
        doc = json.loads(cache.path_for(key).read_text())
        del doc["payload"]["schedule"]["num_gpus"]
        cache.path_for(key).write_text(json.dumps(doc))
        assert cache.get_schedule(key) is None
        assert not cache.path_for(key).exists()

    def test_non_finite_latency_is_a_miss(self, profile, tmp_path):
        cache, key = self.seed(profile, tmp_path)
        doc = json.loads(cache.path_for(key).read_text())
        doc["payload"]["latency"] = "NaN"
        cache.path_for(key).write_text(json.dumps(doc).replace('"NaN"', "NaN"))
        assert cache.get_schedule(key) is None


class TestSharedTree:
    """Schedule entries and sweep entries cohabit one cache dir; stats
    and clear distinguish them by kind and format."""

    def seed_both(self, profile, tmp_path):
        sched = ScheduleCache(tmp_path)
        cached_schedule(profile, "hios-lp", cache=sched)
        sweep = ResultCache(tmp_path)
        sweep.put("0" * 64, {"latency": 1.0}, kind="latency", algorithm="ios")
        return sched, sweep

    def test_stats_break_down_by_kind_and_format(self, profile, tmp_path):
        sched, _ = self.seed_both(profile, tmp_path)
        stats = sched.stats()
        assert stats["entries"] == 2
        assert stats["by_kind"] == {SCHED_CACHE_KIND: 1, "latency": 1}
        assert stats["by_format"] == {SCHED_CACHE_FORMAT: 1, CACHE_FORMAT: 1}

    def test_clear_by_kind_spares_the_other_species(self, profile, tmp_path):
        sched, sweep = self.seed_both(profile, tmp_path)
        assert sched.clear(kind=SCHED_CACHE_KIND) == 1
        stats = sched.stats()
        assert stats["entries"] == 1
        assert stats["by_kind"] == {"latency": 1}
        assert sweep.get("0" * 64) == {"latency": 1.0}

    def test_cross_format_reads_never_alias(self, profile, tmp_path):
        # a ResultCache.get on a schedule entry's key must not return it
        sched, sweep = self.seed_both(profile, tmp_path)
        key = schedule_key(profile, "hios-lp")
        assert sweep.get(key) is None
