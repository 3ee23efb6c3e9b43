"""Figure values must be bit-identical for every store configuration.

The parallel-equivalence suite pins every *backend* to the serial
reference; this suite pins every *store* configuration -- memory-only,
tiered disk, disk-only, worker-side stores and the delta dispatch --
over the full fig_6_18 cell set (the superset of headline's cells).
The client store holds experiment results, so client-side checks run
the cells as one experiment.  It also asserts the caching economics
the tiers exist for: a warm-client rerun dispatches nothing, and a
warm-worker rerun with a
cold client computes nothing anywhere -- zero ``cell_computed``
events, every cell served as a worker-tagged ``cell_cached``.
"""

import pytest

from repro.engine import (
    EventLog,
    ExperimentEngine,
    ResultCache,
)
from repro.engine.backends.remote import RemoteBackend
from repro.engine.worker import start_loopback_workers, stop_workers
from repro.experiments import fig_6_18
from repro.experiments.common import STAGES

from .conftest import cells_experiment


def _rows(cells):
    """``cells_experiment`` rows for a list of cell results."""
    return [[cell.energy, cell.time] for cell in cells]


def _figure_cell_set():
    """Every cell of fig_6_18 (superset of headline's cells)."""
    specs = []
    for stage in STAGES:
        for group in fig_6_18._stage_specs(stage, seed=7).values():
            specs.extend(group)
    return specs


@pytest.fixture(scope="module")
def serial_reference():
    """Reference results from the serial backend + memory store."""
    specs = _figure_cell_set()
    with ExperimentEngine(backend="serial", store="memory") as eng:
        return specs, eng.run_cells(specs)


@pytest.fixture(scope="module")
def caching_workers(tmp_path_factory):
    """Two loopback workers sharing one worker-side store directory."""
    cache_dir = tmp_path_factory.mktemp("worker-store")
    processes, addresses = start_loopback_workers(
        2, extra_args=["--cache-dir", str(cache_dir)]
    )
    yield addresses
    stop_workers(processes)


class TestLocalStoreConfigurations:
    @pytest.mark.parametrize("store", ("memory", "tiered", "jsondir"))
    def test_store_matches_serial_reference(
        self, serial_reference, store, tmp_path
    ):
        specs, reference = serial_reference
        kwargs = (
            {} if store == "memory" else {"cache_dir": str(tmp_path)}
        )
        with ExperimentEngine(store=store, **kwargs) as eng:
            assert eng.run_cells(specs) == reference
            # computed, then served back from the store
            assert cells_experiment(eng, specs) == _rows(reference)
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.stats.hits == 1

    def test_result_cache_facade_matches(self, serial_reference, tmp_path):
        specs, reference = serial_reference
        with ExperimentEngine(
            store=ResultCache(cache_dir=tmp_path)
        ) as eng:
            assert eng.run_cells(specs) == reference
            assert cells_experiment(eng, specs) == _rows(reference)
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.stats.hits == 1

    def test_warm_client_rerun_is_pure_cache(
        self, serial_reference, tmp_path
    ):
        """A second session over the same tiered dir serves the
        experiment from disk: identical values, zero cells computed,
        no cell even looked up."""
        specs, reference = serial_reference
        with ExperimentEngine(
            store="tiered", cache_dir=str(tmp_path)
        ) as eng:
            assert cells_experiment(eng, specs) == _rows(reference)
        with ExperimentEngine(
            store="tiered", cache_dir=str(tmp_path)
        ) as eng:
            log = eng.subscribe(EventLog())
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.cells_computed == 0
        assert log.of_kind("cell_computed") == []
        assert log.of_kind("batch_started") == []
        assert len(log.of_kind("experiment_cached")) == 1


class TestWorkerSideStore:
    def test_cold_then_warm_worker_bit_identical(
        self, serial_reference, caching_workers
    ):
        """The acceptance sweep: cold client+worker, then a cold
        client against warm workers.  Values bit-identical to serial
        both times; the warm-worker pass emits zero cell_computed
        events and serves every cell as a worker-tagged cache hit."""
        specs, reference = serial_reference
        unique = len({spec.key() for spec in specs})

        cold = ExperimentEngine(
            backend="remote", remote_workers=caching_workers
        )
        cold_log = cold.subscribe(EventLog())
        assert cold.run_cells(specs) == reference
        assert cold.cells_computed == unique
        cold.close()
        assert len(cold_log.of_kind("cell_computed")) == unique

        warm = ExperimentEngine(
            backend="remote", remote_workers=caching_workers
        )
        warm_log = warm.subscribe(EventLog())
        assert warm.run_cells(specs) == reference
        # worker-store hits are not evaluations: the computed counter
        # and batch_finished must both report zero
        assert warm.cells_computed == 0
        warm.close()
        assert warm_log.of_kind("cell_computed") == []
        batch_done = warm_log.of_kind("batch_finished")
        assert sum(e.get("n_computed") for e in batch_done) == 0
        assert sum(e.get("n_worker_cached") for e in batch_done) == unique
        cached = warm_log.of_kind("cell_cached")
        assert len(cached) == unique
        assert all(e.get("worker") for e in cached)
        # the delta dispatch reported its hit savings per shard
        finished = warm_log.of_kind("shard_finished")
        assert sum(e.get("n_cached", 0) for e in finished) == unique

    def test_worker_results_written_back_into_client_tiers(
        self, serial_reference, caching_workers, tmp_path
    ):
        """An experiment assembled from worker-served cells lands in
        the client's own store: a follow-up engine over the client's
        cache dir recomputes and dispatches nothing."""
        specs, reference = serial_reference
        with ExperimentEngine(
            backend="remote",
            remote_workers=caching_workers,
            store="tiered",
            cache_dir=str(tmp_path),
        ) as eng:
            assert cells_experiment(eng, specs) == _rows(reference)
        with ExperimentEngine(
            store="tiered", cache_dir=str(tmp_path)
        ) as eng:
            log = eng.subscribe(EventLog())
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.cells_computed == 0
        assert log.of_kind("shard_started") == []
        assert log.of_kind("batch_started") == []

    def test_delta_disabled_still_bit_identical(
        self, serial_reference, caching_workers
    ):
        """``delta=False`` ships full specs; the worker store still
        answers, and values stay bit-identical."""
        specs, reference = serial_reference
        backend = RemoteBackend(caching_workers, delta=False)
        with ExperimentEngine(backend=backend) as eng:
            log = eng.subscribe(EventLog())
            assert eng.run_cells(specs) == reference
        assert log.of_kind("cell_computed") == []
