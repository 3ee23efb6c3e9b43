"""Result-store subsystem: the engine's stack, tiers, fault paths,
atomicity.

Covers the store stack the engine derives from ``cache_dir``, each
store's contract
(stats accounting, sanitisation, corrupt-entry handling), the tiered
read-through/write-back composition, and the crash/concurrency fault
paths: a killed writer must never leave a torn entry, two processes
sharing one ``JsonDirStore`` must not lose or corrupt entries, and a
read-only cache directory must degrade to memory-only operation.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from repro.engine import (
    JsonDirStore,
    MemoryStore,
    ResultCache,
    TieredStore,
    content_key,
)

from .conftest import cells_experiment, store_entries

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestRegistry:
    """The store stack the engine builds from ``cache_dir``."""

    def test_memory_store_needs_no_options(self):
        from repro.engine import ExperimentEngine

        with ExperimentEngine() as eng:
            assert isinstance(eng.store, MemoryStore)

    def test_make_store_builds_layering(self, tmp_path):
        from repro.engine import ExperimentEngine

        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            assert isinstance(eng.store, TieredStore)
            assert [type(t) for t in eng.store.tiers] == [
                MemoryStore,
                JsonDirStore,
            ]


class TestMemoryStore:
    def test_miss_put_hit(self):
        store = MemoryStore()
        key = content_key("m")
        assert store.get(key) is None
        store.put(key, {"v": 1})
        assert store.get(key) == {"v": 1}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == 0.5

    def test_contains_len_clear(self):
        store = MemoryStore()
        key = content_key("m2")
        assert key not in store
        store.put(key, [1])
        assert key in store and len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_put_sanitises(self):
        import numpy as np

        store = MemoryStore()
        key = content_key("np")
        store.put(key, {"x": np.int64(3), "t": (1, 2)})
        assert store.get(key) == {"x": 3, "t": [1, 2]}

    def test_unserialisable_payload_raises_before_store(self):
        store = MemoryStore()
        key = content_key("bad")
        with pytest.raises(TypeError):
            store.put(key, {"obj": object()})
        assert key not in store


class TestJsonDirStore:
    def test_round_trip_across_instances(self, tmp_path):
        key = content_key("jd", 1)
        JsonDirStore(tmp_path).put(key, {"rows": [[1, 2.5]]})
        fresh = JsonDirStore(tmp_path)
        assert fresh.get(key) == {"rows": [[1, 2.5]]}
        assert fresh.stats.hits == 1

    def test_on_disk_format_matches_legacy_result_cache(self, tmp_path):
        """Migration compatibility: the store reads ResultCache
        directories and ResultCache reads store directories -- the
        ``<key[:2]>/<key>.json`` layout is shared."""
        key = content_key("compat")
        ResultCache(cache_dir=tmp_path / "a").put(key, {"v": 7})
        assert JsonDirStore(tmp_path / "a").get(key) == {"v": 7}
        JsonDirStore(tmp_path / "b").put(key, {"v": 8})
        cache = ResultCache(cache_dir=tmp_path / "b")
        assert cache.get(key) == {"v": 8}
        assert cache.tiers[1].stats.hits == 1  # jsondir
        path = tmp_path / "b" / key[:2] / f"{key}.json"
        assert json.loads(path.read_text()) == {"v": 8}

    def test_no_tmp_leaks(self, tmp_path):
        store = JsonDirStore(tmp_path)
        store.put(content_key("leak"), {"v": 1})
        with pytest.raises(TypeError):
            store.put(content_key("leak2"), {"o": object()})
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_corrupt_entry_is_counted_miss_with_callback(self, tmp_path):
        key = content_key("corrupt")
        store = JsonDirStore(tmp_path)
        store.put(key, {"v": 1})
        (tmp_path / key[:2] / f"{key}.json").write_text('{"v": 1')
        seen = []
        fresh = JsonDirStore(tmp_path)
        fresh.on_corrupt = lambda k, p, e: seen.append((k, p, e))
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        assert fresh.stats.corrupt == 1
        assert seen and seen[0][0] == key

    def test_not_a_directory_raises(self, tmp_path):
        target = tmp_path / "plainfile"
        target.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            JsonDirStore(target)

    def test_entries_remove_prune_clear_info(self, tmp_path):
        store = JsonDirStore(tmp_path)
        keys = [content_key("e", i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        entries = list(store.entries())
        assert sorted(e.key for e in entries) == sorted(keys)
        assert all(e.size_bytes > 0 for e in entries)
        info = store.info()
        assert info["entries"] == 3 and info["path"] == str(tmp_path)

        # age one entry far into the past, prune with a 1h threshold
        victim = store._path(keys[0])
        old = time.time() - 7200
        os.utime(victim, (old, old))
        assert store.prune(3600) == 1
        assert keys[0] not in store and keys[1] in store

        assert store.remove(keys[1]) is True
        assert store.remove(keys[1]) is False
        store.clear()
        assert list(store.entries()) == []


class TestTieredStore:
    def _tiered(self, tmp_path):
        memory, disk = MemoryStore(), JsonDirStore(tmp_path)
        return TieredStore([memory, disk]), memory, disk

    def test_put_writes_every_tier(self, tmp_path):
        tiered, memory, disk = self._tiered(tmp_path)
        key = content_key("t1")
        tiered.put(key, {"v": 1})
        assert key in memory and key in disk
        assert tiered.stats.puts == 1

    def test_read_through_promotes(self, tmp_path):
        key = content_key("t2")
        JsonDirStore(tmp_path).put(key, {"v": 2})
        tiered, memory, disk = self._tiered(tmp_path)
        assert tiered.get(key) == {"v": 2}
        assert key in memory  # promoted
        assert tiered.get(key) == {"v": 2}
        assert disk.stats.hits == 1  # second lookup never touched disk
        assert memory.stats.hits == 1
        assert tiered.stats.hits == 2

    def test_per_tier_stats_records(self, tmp_path):
        tiered, _, _ = self._tiered(tmp_path)
        key = content_key("t3")
        tiered.get(key)
        tiered.put(key, 1)
        records = tiered.tier_stats()
        assert [r["store"] for r in records] == [
            "memory",
            f"jsondir({tmp_path})",
        ]
        assert records[0]["misses"] == 1 and records[1]["misses"] == 1
        assert records[0]["puts"] == 1 and records[1]["puts"] == 1

    def test_corrupt_lower_tier_bubbles_up(self, tmp_path):
        key = content_key("t4")
        JsonDirStore(tmp_path).put(key, {"v": 4})
        (tmp_path / key[:2] / f"{key}.json").write_text("{broken")
        tiered, _, disk = self._tiered(tmp_path)
        seen = []
        tiered.on_corrupt = lambda k, p, e: seen.append(k)
        assert tiered.get(key) is None
        assert tiered.stats.misses == 1
        assert tiered.stats.corrupt == 1
        assert disk.stats.corrupt == 1
        assert seen == [key]

    def test_tier_own_callback_keeps_firing(self, tmp_path):
        """Wrapping a tier must chain, not replace, its callback."""
        key = content_key("t5")
        disk = JsonDirStore(tmp_path)
        disk.put(key, {"v": 5})
        (tmp_path / key[:2] / f"{key}.json").write_text("{broken")
        tier_seen, agg_seen = [], []
        disk.on_corrupt = lambda k, p, e: tier_seen.append(k)
        tiered = TieredStore([MemoryStore(), disk])
        tiered.on_corrupt = lambda k, p, e: agg_seen.append(k)
        assert tiered.get(key) is None
        assert tier_seen == [key] and agg_seen == [key]

    def test_clear_clears_all_tiers(self, tmp_path):
        tiered, memory, disk = self._tiered(tmp_path)
        key = content_key("t6")
        tiered.put(key, 1)
        tiered.clear()
        assert key not in memory and key not in disk

    def test_needs_a_tier(self):
        with pytest.raises(ValueError, match="at least one"):
            TieredStore([])

    def test_describe_names_tiers(self, tmp_path):
        tiered, _, _ = self._tiered(tmp_path)
        assert tiered.describe() == f"tiered[memory + jsondir({tmp_path})]"


class TestEngineStoreOption:
    def test_engine_accepts_store_instance(self, tmp_path):
        from repro.engine import CellSpec, ExperimentEngine

        spec = CellSpec("radix", "decode", "nominal")
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            first = cells_experiment(eng, [spec])
            tiers = eng.store_stats()
        assert [t["store"] for t in tiers][0] == "memory"
        # a second engine over the same directory reads it back
        store = JsonDirStore(tmp_path)
        with ExperimentEngine(store=store) as eng:
            assert eng.store is store
            again = cells_experiment(eng, [spec])
            assert eng.cells_computed == 0
        assert again == first

    def test_engine_rejects_cache_and_store(self, tmp_path):
        from repro.engine import ExperimentEngine

        with pytest.raises(ValueError, match="not both"):
            ExperimentEngine(
                store=MemoryStore(), cache_dir=str(tmp_path)
            )

    def test_store_stats_event_emitted(self):
        from repro.engine import CellSpec, EventLog, ExperimentEngine

        with ExperimentEngine() as eng:
            log = eng.subscribe(EventLog())
            cells_experiment(eng, [CellSpec("radix", "decode", "nominal")])
        events = log.of_kind("store_stats")
        assert events
        tiers = events[-1].get("tiers")
        assert tiers and tiers[0]["puts"] == 1


# ----------------------------------------------------------------------
# fault paths: crashes, concurrency, read-only filesystems
# ----------------------------------------------------------------------
_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.engine import JsonDirStore

    store = JsonDirStore({cache_dir!r})
    writer = int(sys.argv[1])
    rounds = int(sys.argv[2])
    payload = {{"blob": "x" * 4096}}
    i = 0
    while rounds < 0 or i < rounds:
        key = "%064x" % (i % 200)
        store.put(key, dict(payload, i=i % 200, writer=writer))
        i += 1
        if rounds < 0 and i % 200 == 0:
            print("round", flush=True)
    """
)


def _spawn_writer(cache_dir, writer, rounds):
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            _WRITER_SCRIPT.format(src=REPO_SRC, cache_dir=str(cache_dir)),
            str(writer),
            str(rounds),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


class TestFaultPaths:
    def test_killed_writer_never_leaves_torn_entries(self, tmp_path):
        """SIGKILL a process mid-write-stream: every ``.json`` entry
        that exists afterwards must parse (the atomic tmp+rename
        publish is what guarantees it)."""
        proc = _spawn_writer(tmp_path, writer=0, rounds=-1)
        try:
            # wait until it is demonstrably mid-stream, then kill hard
            assert proc.stdout.readline().strip() == "round"
            proc.stdout.readline()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
        entries = list(tmp_path.rglob("*.json"))
        assert entries, "writer produced no entries before the kill"
        for path in entries:
            payload = json.loads(path.read_text())  # must not raise
            assert payload["blob"] == "x" * 4096
        # the store agrees: nothing is reported corrupt
        store = JsonDirStore(tmp_path)
        for path in entries:
            assert store.get(path.stem) is not None
        assert store.stats.corrupt == 0

    def test_concurrent_writers_no_lost_or_torn_entries(self, tmp_path):
        """Two processes hammering one directory with overlapping
        keys: all keys present afterwards, every entry parses."""
        writers = [
            _spawn_writer(tmp_path, writer=w, rounds=400) for w in (1, 2)
        ]
        for proc in writers:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
        store = JsonDirStore(tmp_path)
        keys = ["%064x" % i for i in range(200)]
        for key in keys:
            payload = store.get(key)
            assert payload is not None, f"lost entry {key[:8]}"
            assert payload["i"] == int(key, 16)
            assert payload["writer"] in (1, 2)
        assert store.stats.corrupt == 0
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_read_only_cache_dir_degrades_to_memory(
        self, tmp_path, monkeypatch
    ):
        """A store that cannot write (read-only/full filesystem) must
        skip the disk write -- counted, not raised -- and the tiered
        stack must keep serving from memory."""

        def denied(*args, **kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", denied)
        tiered = TieredStore([MemoryStore(), JsonDirStore(tmp_path)])
        key = content_key("ro")
        tiered.put(key, {"v": 9})  # must not raise
        assert tiered.get(key) == {"v": 9}  # memory tier serves it
        records = tiered.tier_stats()
        assert records[1]["put_errors"] == 1
        monkeypatch.undo()
        assert list(tmp_path.rglob("*.json")) == []

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root bypasses permission bits"
    )
    def test_read_only_directory_for_real(self, tmp_path):
        store = JsonDirStore(tmp_path)
        os.chmod(tmp_path, 0o500)
        try:
            store.put(content_key("ro2"), {"v": 1})
            assert store.stats.put_errors == 1
        finally:
            os.chmod(tmp_path, 0o700)

    def test_truncated_entry_healed_by_recompute_via_engine(
        self, tmp_path
    ):
        """End to end through the engine: a truncated disk entry in a
        tiered store is skipped, recomputed and atomically replaced."""
        from repro.engine import CellSpec, EventLog, ExperimentEngine

        spec = CellSpec("radix", "decode", "nominal")
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            expected = cells_experiment(eng, [spec])
        (path,) = store_entries(tmp_path)
        path.write_text(path.read_text()[:15])

        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            log = eng.subscribe(EventLog())
            healed = cells_experiment(eng, [spec])
            assert healed == expected
            assert eng.cells_computed == 1
        assert len(log.of_kind("cache_corrupt")) == 1
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            cells_experiment(eng, [spec])
            assert eng.cells_computed == 0
