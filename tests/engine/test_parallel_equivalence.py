"""The remote backend's output must equal the serial reference, bit
for bit -- the engine's core guarantee (cells are pure functions of
their specs, online streams are derived from spec content hashes).

Remote is the one parallel path: every check here dispatches to the
session's two loopback worker subprocesses over the real wire
protocol.  The backend sweep runs over the full fig_6_18 + headline
cell set: every (benchmark, stage, scheme, interval) cell of the
paper's main result figures, offline and online."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExperimentEngine,
    benchmark_specs,
    engine_session,
)
from repro.experiments import fig_6_18, table_5_1
from repro.experiments.common import STAGES
from repro.serialization import canonical_json

GOLDEN_TABLE_5_1 = Path(__file__).resolve().parents[1] / "golden" / "table_5_1.json"

def _figure_cell_set():
    """Every cell of fig_6_18 (superset of headline's cells)."""
    specs = []
    for stage in STAGES:
        for group in fig_6_18._stage_specs(stage, seed=7).values():
            specs.extend(group)
    return specs


@pytest.fixture(scope="module")
def serial_reference():
    """The reference results, computed once on the serial backend."""
    specs = _figure_cell_set()
    with ExperimentEngine() as eng:
        return specs, eng.run_cells(specs)


class TestBackendEquivalence:
    def test_backend_matches_serial_on_figure_cells(
        self, serial_reference, loopback_workers
    ):
        specs, reference = serial_reference
        with ExperimentEngine(remote_workers=loopback_workers) as eng:
            results = eng.run_cells(specs)
        assert results == reference


class TestExperimentEquivalence:
    def test_table_5_1_parallel_equals_serial(self, loopback_workers):
        """Table 5.1 submits no cells, so the serial side is its golden
        payload (regenerated serially by ``tools/update_golden.py``)."""
        serial = json.loads(GOLDEN_TABLE_5_1.read_text())["payload"]
        with engine_session(ExperimentEngine(remote_workers=loopback_workers)):
            parallel = table_5_1.run()
        assert json.loads(canonical_json(parallel.to_payload())) == serial

    def test_fig_6_18_parallel_equals_serial(self, loopback_workers):
        with engine_session():
            serial = fig_6_18.run()
        with engine_session(ExperimentEngine(remote_workers=loopback_workers)):
            parallel = fig_6_18.run()
        assert parallel == serial
        assert [tuple(r) for r in parallel.rows] == [
            tuple(r) for r in serial.rows
        ]
        assert parallel.notes == serial.notes


class TestCellEquivalence:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        benchmark=st.sampled_from(("radix", "fmm", "cholesky")),
        scheme=st.sampled_from(("synts", "per_core_ts", "online")),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_cells_any_backend_equals_serial(
        self, loopback_workers, benchmark, scheme, seed
    ):
        specs = list(
            benchmark_specs(
                benchmark, "simple_alu", scheme, seed=seed, n_samp=5_000
            )
            if scheme == "online"
            else benchmark_specs(benchmark, "simple_alu", scheme)
        )
        serial = ExperimentEngine().run_cells(specs)
        with ExperimentEngine(remote_workers=loopback_workers) as eng:
            assert eng.run_cells(specs) == serial
