"""Golden outputs: regenerated experiments must equal the committed
``tests/golden/*.json`` files bit for bit.

The files and their format come from ``tools/update_golden.py``; rerun
it after a change that moves values on purpose.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "update_golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("update_golden", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_tool()


def test_every_golden_file_has_a_producer():
    files = {path.stem for path in golden.GOLDEN_DIR.glob("*.json")}
    assert files == set(golden.GOLDEN)


def test_content_keys_match_pins():
    """Experiment, ablation and per-scheme cell keys are exactly the
    pinned ones (a fresh interpreter: no test's registrations leak in)."""
    env = dict(os.environ, PYTHONPATH=str(_TOOL.parents[1] / "src"))
    env.pop("REPRO_BOOTSTRAP", None)
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "--keys", "--check"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_table_5_1_matches_golden(table_5_1_result, ring_sweep):
    """Payload and absolute periods (as ``float.hex()``) are exact."""
    actual = golden.golden_record(
        table_5_1_result, {"ring_periods": golden.ring_periods(ring_sweep)}
    )
    diff = golden.first_difference(golden.load("table_5_1"), actual)
    assert diff is None, f"table_5_1 differs from its golden file: {diff}"


@pytest.mark.parametrize(
    "experiment_id", sorted(set(golden.GOLDEN) - {"table_5_1"})
)
def test_experiment_matches_golden(experiment_id):
    """Exact when the installed numpy and scipy are the versions the
    file records; within ``REL_TOL`` relative when they differ."""
    expected = golden.load(experiment_id)
    diff = golden.first_difference(
        expected,
        golden.regenerate(experiment_id),
        golden.tolerance(expected),
    )
    assert diff is None, f"{experiment_id} differs from its golden file: {diff}"


class TestFirstDifference:
    @pytest.fixture
    def record(self):
        return golden.load("table_5_1")

    def test_identical_records(self, record):
        assert golden.first_difference(record, record) is None

    def test_names_the_first_differing_voltage(self, record):
        periods = [list(pair) for pair in record["extras"]["ring_periods"]]
        changed = {**record, "extras": {"ring_periods": periods}}
        changed["extras"]["ring_periods"][2][1] = float.hex(1.0)
        changed["extras"]["ring_periods"][4][1] = float.hex(2.0)
        diff = golden.first_difference(record, changed)
        assert diff.startswith("extras.ring_periods at 0.86:")

    def test_names_the_first_differing_row(self, record):
        rows = [list(r) for r in record["payload"]["rows"]]
        rows[3][2] += 1e-15
        changed = {**record, "payload": {**record["payload"], "rows": rows}}
        diff = golden.first_difference(record, changed)
        assert diff.startswith(".payload.rows[3][2]:")

    def test_type_changes_count(self, record):
        changed = {**record, "payload": {**record["payload"], "plot": 0}}
        assert golden.first_difference(record, changed) is not None

    def test_tolerance_only_when_versions_differ(self):
        record = golden.load("fig_6_18")
        installed = {**record, "versions": golden.library_versions()}
        assert golden.tolerance(installed) == 0.0
        assert golden.tolerance(golden.load("table_5_1")) == 0.0
        other = {**record, "versions": {"numpy": "0.0", "scipy": "0.0"}}
        assert golden.tolerance(other) == golden.REL_TOL

        rows = [list(r) for r in record["payload"]["rows"]]
        rows[0][2] *= 1 + 1e-14
        near = {**record, "payload": {**record["payload"], "rows": rows}}
        assert golden.first_difference(record, near) is not None
        assert golden.first_difference(record, near, golden.REL_TOL) is None
        rows[0][2] *= 1 + 1e-9
        assert golden.first_difference(record, near, golden.REL_TOL)
