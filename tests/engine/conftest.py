"""Shared engine-test fixtures and helpers.

Loopback remote workers, plus the smallest ``experiment()`` over a
list of cells: the store persists experiment results only, so tests
of on-disk behaviour (corrupt entries, healing, warm reruns) go
through it.
"""

from pathlib import Path

import pytest

from repro.engine.worker import start_loopback_workers, stop_workers
from repro.experiments.common import ExperimentResult


@pytest.fixture(scope="session")
def loopback_workers():
    """Two local ``python -m repro worker`` processes on free ports.

    Session-scoped and shared: tests that kill workers must start
    their own (see ``test_remote.TestFailover``).
    """
    processes, addresses = start_loopback_workers(2)
    yield addresses
    stop_workers(processes)


def cells_experiment(engine, specs, label="cells"):
    """Memoise ``run_cells(specs)`` as one experiment; return its rows.

    The rows are ``(energy, time)`` per cell, aligned with ``specs``,
    as lists (the shape a stored result decodes to).
    """

    def thunk():
        cells = engine.run_cells(specs)
        return ExperimentResult(
            experiment_id=label,
            title=label,
            headers=["energy", "time"],
            rows=[[cell.energy, cell.time] for cell in cells],
        )

    keys = [spec.key() for spec in specs]
    result = engine.experiment((label, keys), thunk)
    return [list(row) for row in result.rows]


def store_entries(cache_dir):
    """Every entry file a JSON-directory store holds under ``cache_dir``."""
    return sorted(Path(cache_dir).glob("??/*.json"))
