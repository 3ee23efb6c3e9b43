"""Figure values must be bit-identical for every store configuration.

The parallel-equivalence suite pins the remote *backend* to the serial
reference; this suite pins every *store* configuration -- memory-only,
tiered disk and disk-only, with local or remote compute -- over the
full fig_6_18 cell set (the superset of headline's cells).  The store
holds experiment results, so the checks run the cells as one
experiment.  It also asserts the caching economics the tiers exist
for: a warm rerun dispatches nothing, whichever backend filled the
store.
"""

import pytest

from repro.engine import (
    EventLog,
    ExperimentEngine,
    JsonDirStore,
    MemoryStore,
    ResultCache,
)
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
    with ExperimentEngine() as eng:
        return specs, eng.run_cells(specs)


class TestLocalStoreConfigurations:
    @pytest.mark.parametrize("store", ("memory", "tiered", "jsondir"))
    def test_store_matches_serial_reference(
        self, serial_reference, store, tmp_path
    ):
        specs, reference = serial_reference
        kwargs = {
            "memory": {"store": MemoryStore()},
            "tiered": {"cache_dir": str(tmp_path)},
            "jsondir": {"store": JsonDirStore(tmp_path)},
        }[store]
        with ExperimentEngine(**kwargs) as eng:
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
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            assert cells_experiment(eng, specs) == _rows(reference)
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            log = eng.subscribe(EventLog())
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.cells_computed == 0
        assert log.of_kind("cell_computed") == []
        assert log.of_kind("batch_started") == []
        assert len(log.of_kind("experiment_cached")) == 1


class TestRemoteClientStore:
    def test_worker_results_written_back_into_client_tiers(
        self, serial_reference, loopback_workers, tmp_path
    ):
        """An experiment assembled from worker-computed cells lands in
        the client's own store: a follow-up engine over the client's
        cache dir recomputes and dispatches nothing."""
        specs, reference = serial_reference
        with ExperimentEngine(
            remote_workers=loopback_workers, cache_dir=str(tmp_path)
        ) as eng:
            assert cells_experiment(eng, specs) == _rows(reference)
        with ExperimentEngine(cache_dir=str(tmp_path)) as eng:
            log = eng.subscribe(EventLog())
            assert cells_experiment(eng, specs) == _rows(reference)
            assert eng.cells_computed == 0
        assert log.of_kind("shard_started") == []
        assert log.of_kind("batch_started") == []
