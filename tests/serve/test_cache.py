"""Content-addressed result cache: atomicity, counters, restarts."""

from __future__ import annotations

import pytest

from repro.serve.cache import ResultCache


KEY = "ab" * 32
TEXT = '{"answer":42}'


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, TEXT)
        assert cache.get(KEY) == TEXT
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "warm": 1,
            "evictions": 0, "limit": None,
        }

    def test_survives_restart_byte_identical(self, tmp_path):
        ResultCache(tmp_path).put(KEY, TEXT)
        cold = ResultCache(tmp_path)
        assert cold.get(KEY) == TEXT          # disk hit re-warms
        assert cold.stats()["hits"] == 1
        assert cold.get(KEY) == TEXT          # now memory-fast

    def test_peek_does_not_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        assert cache.peek(KEY) == TEXT
        assert cache.peek("cd" * 32) is None
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_contains_does_not_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        assert cache.contains(KEY)
        assert not cache.contains("cd" * 32)
        assert cache.stats()["hits"] == 0

    def test_namespaced_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        cache.put(f"baseline-{KEY}", '{"other":1}')
        assert cache.get(KEY) == TEXT
        assert cache.get(f"baseline-{KEY}") == '{"other":1}'

    def test_hostile_keys_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "../escape", "UPPER", "a b", "x\x00y"):
            with pytest.raises(ValueError, match="invalid cache key"):
                cache.put(bad, TEXT)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        cache.put(KEY, TEXT)  # overwrite
        leftovers = [
            p for p in tmp_path.iterdir() if not p.name.endswith(".json")
        ]
        assert leftovers == []

    def test_empty_root_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.stats() == {
            "hits": 0, "misses": 0, "entries": 0, "warm": 0,
            "evictions": 0, "limit": None,
        }


def _age(cache: ResultCache, key: str, mtime: float) -> None:
    """Pin an entry's mtime so LRU ordering is deterministic in tests
    (real clocks tick too coarsely for back-to-back puts)."""
    import os

    os.utime(cache._path(key), (mtime, mtime))


class TestEviction:
    def test_limit_validates(self, tmp_path):
        with pytest.raises(ValueError, match="cache limit"):
            ResultCache(tmp_path, limit=0)

    def test_oldest_entries_evicted(self, tmp_path):
        evicted_batches: list[int] = []
        cache = ResultCache(
            tmp_path, limit=2, on_evict=evicted_batches.append
        )
        cache.put("aa" * 32, '{"n":1}')
        _age(cache, "aa" * 32, 1000.0)
        cache.put("bb" * 32, '{"n":2}')
        _age(cache, "bb" * 32, 2000.0)
        cache.put("cc" * 32, '{"n":3}')  # over limit: evicts aa
        assert not cache.contains("aa" * 32)
        assert cache.contains("bb" * 32)
        assert cache.contains("cc" * 32)
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["limit"] == 2
        assert evicted_batches == [1]

    def test_recent_hit_protects_entry(self, tmp_path):
        cache = ResultCache(tmp_path, limit=2)
        cache.put("aa" * 32, '{"n":1}')
        _age(cache, "aa" * 32, 1000.0)
        cache.put("bb" * 32, '{"n":2}')
        _age(cache, "bb" * 32, 2000.0)
        assert cache.get("aa" * 32) == '{"n":1}'  # touch: aa now newest
        cache.put("cc" * 32, '{"n":3}')
        assert cache.contains("aa" * 32)
        assert not cache.contains("bb" * 32)

    def test_just_written_key_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, limit=1)
        cache.put("aa" * 32, '{"n":1}')
        _age(cache, "aa" * 32, 9999999999.0)  # far future mtime
        cache.put("bb" * 32, '{"n":2}')
        # bb sorts oldest but is the entry being written: aa goes.
        assert cache.contains("bb" * 32)
        assert not cache.contains("aa" * 32)

    def test_reput_after_eviction_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path, limit=1)
        cache.put(KEY, TEXT)
        _age(cache, KEY, 1000.0)
        cache.put("cd" * 32, '{"other":1}')
        assert cache.get(KEY) is None  # evicted
        # Deterministic flow: a re-request re-synthesizes the same
        # text; the cache must hand it back byte for byte.
        cache.put(KEY, TEXT)
        assert cache.get(KEY) == TEXT

    def test_unlimited_hit_leaves_mtime_alone(self, tmp_path):
        # Recency is only read by eviction: without a limit a hit —
        # warm or disk-cold — spends no syscall recording it.
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        _age(cache, KEY, 1000.0)
        before = cache._path(KEY).stat().st_mtime
        assert cache.get(KEY) == TEXT
        assert ResultCache(tmp_path).get(KEY) == TEXT
        assert cache._path(KEY).stat().st_mtime == before == 1000.0

    def test_stats_entries_track_the_directory(self, tmp_path):
        def on_disk() -> int:
            return sum(1 for _ in tmp_path.glob("*.json"))

        cache = ResultCache(tmp_path, limit=3)
        for index in range(3):
            cache.put(f"{index:02d}" * 32, f'{{"n":{index}}}')
            _age(cache, f"{index:02d}" * 32, 1000.0 + index)
        cache.put("00" * 32, '{"n":0}')  # overwrite: no new entry
        assert cache.stats()["entries"] == on_disk() == 3
        cache.put("ff" * 32, '{"n":9}')  # evicts the oldest
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["entries"] == on_disk() == 3
        (tmp_path / "ee.tmp-1-2").write_text("partial")  # not an entry
        assert ResultCache(tmp_path).stats()["entries"] == on_disk() == 3

    def test_failed_reads_drop_from_the_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, TEXT)
        cache.put("cd" * 32, TEXT)
        cold = ResultCache(tmp_path)
        cache._path(KEY).unlink()  # lost behind the cache's back
        assert cold.get(KEY) is None
        (tmp_path / f"{'cd' * 32}.json").unlink()
        assert cold.peek("cd" * 32) is None
        assert cold.stats()["entries"] == 0

    def test_unlimited_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(20):
            cache.put(f"{index:02d}" * 32, f'{{"n":{index}}}')
        assert cache.entries() == 20
        assert cache.stats()["evictions"] == 0
