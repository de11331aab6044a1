"""ResultCache: roundtrip, defensive reads, stats/clear, env resolution."""

import json

import pytest

from repro.sweep import ResultCache
from repro.sweep.cache import CACHE_FORMAT, default_cache_dir
from repro.sweep.keying import CACHE_SCHEMA_VERSION, content_key

KEY = content_key({"probe": 1})
PAYLOAD = {"latency": 12.5}


def put_one(cache, key=KEY, payload=PAYLOAD):
    cache.put(key, payload, kind="latency", algorithm="hios-lp", meta={"t": 0.1})


class TestRoundtrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        put_one(cache)
        assert cache.get(KEY) == PAYLOAD
        assert (cache.hits, cache.misses) == (1, 1)

    def test_entry_is_a_self_describing_document(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        doc = json.loads(cache.path_for(KEY).read_text())
        assert doc["format"] == CACHE_FORMAT
        assert doc["schema_version"] == CACHE_SCHEMA_VERSION
        assert doc["key"] == KEY
        assert doc["kind"] == "latency"
        assert doc["algorithm"] == "hios-lp"
        assert doc["payload"] == PAYLOAD
        assert doc["meta"] == {"t": 0.1}

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(KEY)
        assert path.parent.name == KEY[:2]
        assert path.parent.parent.name == f"v{CACHE_SCHEMA_VERSION}"

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        put_one(cache, payload={"latency": 99.0})
        assert cache.get(KEY) == {"latency": 99.0}


class TestDefensiveReads:
    """A corrupt entry is discarded and treated as a miss — never fatal."""

    def corrupt(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        put_one(cache)
        cache.path_for(KEY).write_text(text)
        return cache

    def test_garbage_bytes_discarded(self, tmp_path):
        cache = self.corrupt(tmp_path, "{not json")
        assert cache.get(KEY) is None
        assert not cache.path_for(KEY).exists()

    def test_truncated_write_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        full = cache.path_for(KEY).read_text()
        cache.path_for(KEY).write_text(full[: len(full) // 2])
        assert cache.get(KEY) is None

    def mutate(self, tmp_path, **changes):
        cache = ResultCache(tmp_path)
        put_one(cache)
        doc = json.loads(cache.path_for(KEY).read_text())
        doc.update(changes)
        cache.path_for(KEY).write_text(json.dumps(doc))
        return cache

    def test_wrong_format_discarded(self, tmp_path):
        assert self.mutate(tmp_path, format="other/v1").get(KEY) is None

    def test_wrong_schema_version_discarded(self, tmp_path):
        cache = self.mutate(tmp_path, schema_version=CACHE_SCHEMA_VERSION + 1)
        assert cache.get(KEY) is None

    @pytest.mark.parametrize("version", [True, float(CACHE_SCHEMA_VERSION)], ids=repr)
    def test_non_integer_schema_version_discarded(self, tmp_path, version):
        assert self.mutate(tmp_path, schema_version=version).get(KEY) is None

    def test_key_filename_mismatch_discarded(self, tmp_path):
        assert self.mutate(tmp_path, key=content_key({"other": 1})).get(KEY) is None

    def test_empty_payload_discarded(self, tmp_path):
        assert self.mutate(tmp_path, payload={}).get(KEY) is None

    def test_non_numeric_payload_discarded(self, tmp_path):
        assert self.mutate(tmp_path, payload={"latency": "fast"}).get(KEY) is None

    def test_nan_payload_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        text = cache.path_for(KEY).read_text().replace("12.5", "NaN")
        cache.path_for(KEY).write_text(text)
        assert cache.get(KEY) is None

    @pytest.mark.parametrize("raw", ["Infinity", "1" + "0" * 400], ids=["inf", "1e400-int"])
    def test_non_finite_payload_discarded(self, tmp_path, raw):
        cache = ResultCache(tmp_path)
        put_one(cache)
        text = cache.path_for(KEY).read_text().replace("12.5", raw)
        cache.path_for(KEY).write_text(text)
        assert cache.get(KEY) is None
        assert cache.misses == 1 and not cache.path_for(KEY).exists()

    def test_bool_payload_discarded(self, tmp_path):
        assert self.mutate(tmp_path, payload={"latency": True}).get(KEY) is None


class TestStatsAndClear:
    def test_stats_counts_entries_and_kinds(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        cache.put(
            content_key({"probe": 2}),
            {"measured_ms": 1.0},
            kind="measured",
            algorithm="ios",
        )
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["by_kind"] == {"latency": 1, "measured": 1}
        assert stats["cache_dir"] == str(tmp_path)

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        put_one(cache, key=content_key({"probe": 2}))
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0
        assert cache.get(KEY) is None

    def test_non_object_entry_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_one(cache)
        cache.path_for(KEY).write_text("[1, 2]")
        assert cache.stats()["by_kind"] == {"corrupt": 1}
        assert cache.clear(kind="corrupt") == 1

    def test_empty_cache_stats(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats["entries"] == 0
        assert stats["by_kind"] == {}


class TestDefaultDir:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = default_cache_dir()
        assert path.name == "repro-hios"
        assert path.parent.name == ".cache"
