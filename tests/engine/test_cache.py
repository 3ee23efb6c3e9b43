"""The memory(+disk) ``ResultCache`` stack: accounting, layering,
disk round trips."""

import json

import pytest

from repro.engine import ResultCache, content_key, sanitize

from .conftest import cells_experiment, store_entries


class TestStats:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"v": 1})
        assert cache.get("k" * 64) == {"v": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_contains_and_len(self):
        cache = ResultCache()
        key = content_key("x")
        assert key not in cache
        cache.put(key, [1, 2])
        assert key in cache
        assert len(cache.tiers[0]) == 1

    def test_clear_keeps_disk(self, tmp_path):
        """``clear()`` drops only the memory tier: the next read falls
        through to disk and promotes the entry back."""
        cache = ResultCache(cache_dir=tmp_path)
        memory, disk = cache.tiers
        key = content_key("y")
        cache.put(key, {"v": 2})
        cache.clear()
        assert len(memory) == 0
        assert cache.get(key) == {"v": 2}
        assert disk.stats.hits == 1
        assert len(memory) == 1


class TestDisk:
    def test_round_trip_across_instances(self, tmp_path):
        key = content_key("payload", 1)
        first = ResultCache(cache_dir=tmp_path)
        first.put(key, {"rows": [[1, 2.5, "a"]], "note": None})

        second = ResultCache(cache_dir=tmp_path)
        disk = second.tiers[1]
        assert second.get(key) == {"rows": [[1, 2.5, "a"]], "note": None}
        assert disk.stats.hits == 1
        # promoted to memory: the next lookup does not touch disk
        assert second.get(key) is not None
        assert disk.stats.hits == 1

    def test_entries_are_plain_json_files(self, tmp_path):
        key = content_key("inspectable")
        ResultCache(cache_dir=tmp_path).put(key, {"v": 3})
        path = tmp_path / key[:2] / f"{key}.json"
        assert json.loads(path.read_text()) == {"v": 3}

    def test_numpy_payload_sanitised_on_put(self, tmp_path):
        """numpy-typed values (e.g. seeds from np.arange) must not
        crash the disk write nor leak tmp files."""
        import numpy as np

        cache = ResultCache(cache_dir=tmp_path)
        key = content_key("np")
        cache.put(key, {"seed": np.int64(5), "xs": np.array([1.0, 2.0])})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(key) == {"seed": 5, "xs": [1.0, 2.0]}
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_unserialisable_payload_raises_without_tmp_leak(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with pytest.raises(TypeError):
            cache.put(content_key("bad"), {"obj": object()})
        assert [p for p in tmp_path.rglob("*.tmp")] == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        key = content_key("corrupt")
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(key, {"v": 4})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        assert fresh.stats.corrupt == 1

    def test_corrupt_entry_invokes_callback_with_details(self, tmp_path):
        key = content_key("corrupt-cb")
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(key, {"v": 5})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text('{"v": 5')  # truncated write
        seen = []
        fresh = ResultCache(cache_dir=tmp_path)
        fresh.on_corrupt = lambda k, p, err: seen.append((k, p, err))
        assert fresh.get(key) is None
        assert seen and seen[0][0] == key and str(path) in seen[0][1]

    def test_engine_chains_existing_on_corrupt_callback(self, tmp_path):
        """An engine must add its event emitter after a
        caller-supplied callback, not replace it."""
        from repro.engine import CellSpec, EventLog, ExperimentEngine

        spec = CellSpec("radix", "decode", "nominal")
        cells_experiment(ExperimentEngine(cache_dir=tmp_path), [spec])
        (path,) = store_entries(tmp_path)
        path.write_text("{broken")

        seen = []
        cache = ResultCache(cache_dir=tmp_path)
        cache.on_corrupt = lambda k, p, e: seen.append(k)
        eng = ExperimentEngine(store=cache)
        events = eng.subscribe(EventLog())
        cells_experiment(eng, [spec])
        assert seen == [path.stem]  # caller's callback still fires
        assert len(events.of_kind("cache_corrupt")) == 1

    def test_missing_entry_is_not_corrupt(self, tmp_path):
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(content_key("never-written")) is None
        assert fresh.stats.corrupt == 0

    def test_corrupt_entry_overwritten_by_recompute(self, tmp_path):
        """A warm rerun over a truncated entry recomputes and heals it."""
        from repro.engine import CellSpec, EventLog, ExperimentEngine

        spec = CellSpec("radix", "decode", "nominal")
        cold = ExperimentEngine(cache_dir=tmp_path)
        expected = cells_experiment(cold, [spec])
        (path,) = store_entries(tmp_path)
        path.write_text(path.read_text()[:20])  # truncate mid-payload

        warm = ExperimentEngine(cache_dir=tmp_path)
        events = warm.subscribe(EventLog())
        healed = cells_experiment(warm, [spec])
        assert healed == expected
        assert warm.cells_computed == 1
        assert warm.stats.corrupt == 1
        corrupt_events = events.of_kind("cache_corrupt")
        assert corrupt_events and corrupt_events[0].get("key") == path.stem
        # the entry is readable again
        third = ExperimentEngine(cache_dir=tmp_path)
        assert cells_experiment(third, [spec]) == expected
        assert third.cells_computed == 0
        assert third.stats.corrupt == 0


class TestKeys:
    def test_content_key_is_canonical(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key([1, 2]) == content_key((1, 2))
        assert content_key("a") != content_key("b")

    def test_sanitize_rejects_rich_objects(self):
        with pytest.raises(TypeError):
            sanitize(object())

    def test_sanitize_numpy(self):
        import numpy as np

        out = sanitize(
            {"f": np.float64(1.5), "i": np.int64(2), "b": np.bool_(True),
             "arr": np.arange(3)}
        )
        assert out == {"f": 1.5, "i": 2, "b": True, "arr": [0, 1, 2]}
        assert type(out["f"]) is float and type(out["i"]) is int
        assert type(out["b"]) is bool
