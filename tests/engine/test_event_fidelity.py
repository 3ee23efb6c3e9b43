"""Event-stream fidelity across backends.

Serial and remote runs must emit the *same per-cell event
multiset* (ordering aside): observability never depends on where a
cell happened to run.  Backend-specific extras (shards, worker tags,
``worker_lost``) ride alongside without disturbing the per-cell view.
"""

import pytest

from repro.engine import (
    EventLog,
    ExperimentEngine,
    benchmark_specs,
)

from .conftest import cells_experiment, store_entries

#: Events carrying per-cell coordinates, compared across backends.
CELL_EVENT_KINDS = ("cell_cached", "cell_computed")


def _specs():
    # two groups, so the remote backend really shards; online adds a
    # per-interval (non-vectorized) batch to the mix
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("fmm", "decode", "nominal")
        + benchmark_specs("raytrace", "decode", "online", seed=5, n_samp=2_000)
    )


def _cell_multiset(log: EventLog):
    return sorted(
        (
            event.kind,
            event.get("benchmark"),
            event.get("stage"),
            event.get("scheme"),
            event.get("interval"),
        )
        for event in log.events
        if event.kind in CELL_EVENT_KINDS
    )


def _run_and_log(make_engine):
    engine = make_engine()
    log = engine.subscribe(EventLog())
    results = engine.run_cells(_specs())
    engine.close()
    return results, log


@pytest.fixture(scope="module")
def serial_run():
    return _run_and_log(lambda: ExperimentEngine())


class TestPerCellMultiset:
    def test_remote_matches_serial(self, serial_run, loopback_workers):
        reference, serial_log = serial_run
        results, log = _run_and_log(
            lambda: ExperimentEngine(
                remote_workers=loopback_workers
            )
        )
        assert results == reference
        assert _cell_multiset(log) == _cell_multiset(serial_log)

    def test_cached_rerun_multiset_matches(self, loopback_workers):
        """A warm rerun flips every cell_computed to cell_cached --
        identically for serial and remote engines."""
        multisets = {}
        for name, kwargs in (
            ("serial", {}),
            ("remote", {"remote_workers": loopback_workers}),
        ):
            engine = ExperimentEngine(**kwargs)
            log = engine.subscribe(EventLog())
            engine.run_cells(_specs())
            engine.run_cells(_specs())
            engine.close()
            multisets[name] = _cell_multiset(log)
        assert multisets["serial"] == multisets["remote"]


class TestCacheCorruptFidelity:
    @pytest.mark.parametrize("backend", ("serial", "remote"))
    def test_corrupt_entry_reported_once_everywhere(
        self, backend, tmp_path, loopback_workers
    ):
        spec = _specs()[0]
        cache_dir = tmp_path / backend
        # a warm cache with one corrupt entry
        seed = ExperimentEngine(cache_dir=str(cache_dir))
        cells_experiment(seed, [spec])
        seed.close()
        (path,) = store_entries(cache_dir)
        key = path.stem
        path.write_text("{not json")

        kwargs = (
            {"remote_workers": loopback_workers}
            if backend == "remote"
            else {}
        )
        engine = ExperimentEngine(cache_dir=str(cache_dir), **kwargs)
        log = engine.subscribe(EventLog())
        cells_experiment(engine, [spec])
        engine.close()
        corrupt = log.of_kind("cache_corrupt")
        assert len(corrupt) == 1
        assert corrupt[0].get("key") == key
        # the corrupt entry was recomputed, not fatal
        assert len(log.of_kind("cell_computed")) == 1


class TestWorkerLostFidelity:
    def test_worker_lost_does_not_disturb_cell_multiset(self):
        """Killing a worker mid-session adds worker_lost (and nothing
        else) relative to the per-cell event picture."""
        from repro.engine.worker import start_loopback_workers, stop_workers

        specs = _specs()
        with ExperimentEngine() as engine:
            serial_log = engine.subscribe(EventLog())
            reference = engine.run_cells(specs)

        processes, addresses = start_loopback_workers(2)
        try:
            engine = ExperimentEngine(
                remote_workers=addresses
            )
            log = engine.subscribe(EventLog())
            # open the connections, then lose one worker
            engine.run_cells(
                list(benchmark_specs("barnes", "decode", "nominal"))
            )
            processes[1].terminate()
            processes[1].wait(timeout=10)
            assert engine.run_cells(specs) == reference
            engine.close()
        finally:
            stop_workers(processes)
        lost = log.of_kind("worker_lost")
        assert [e.get("worker") for e in lost] == [addresses[1]]
        remote_cells = [
            entry
            for entry in _cell_multiset(log)
            if entry[1] != "barnes"
        ]
        assert remote_cells == _cell_multiset(serial_log)
