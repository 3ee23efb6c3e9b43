"""The CI perf gate (``tools/perf_gate.py``) on synthetic run sets.

The gate reuses ``perfbench/runs.py``'s verdicts; these tests build
``run_*.json`` sets by hand and check which ones make it exit 1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_gate.py"


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, failed=0):
    """One ``run.py`` result line with every end-to-end metric."""
    metrics = {"wall_s": wall, "setup_s": 0.1, "cpu_s": wall, "peak_rss_mb": 60.0}
    return {
        "correct": failed == 0,
        "attempted": 3,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
    }


def _write_sets(out, parent, change):
    for side, results in (("parent", parent), ("change", change)):
        (out / side).mkdir(parents=True)
        for i, result in enumerate(results):
            (out / side / f"run_{i:02d}.json").write_text(json.dumps(result))


STEADY = [1.00, 1.02, 0.98, 1.01, 0.99]
#: A parent spread wider than the 0.25 bound: q1 1.0, q3 2.0.
WIDE = [1.0, 1.0, 1.5, 2.0, 2.0]


def test_unchanged_set_passes(perf_gate, tmp_path):
    _write_sets(tmp_path, [_run(w) for w in STEADY], [_run(w) for w in STEADY])
    assert perf_gate.gate(tmp_path) == 0


def test_regression_fails(perf_gate, tmp_path, capsys):
    _write_sets(
        tmp_path, [_run(w) for w in STEADY], [_run(1.4 * w) for w in STEADY]
    )
    assert perf_gate.gate(tmp_path) == 1
    out = capsys.readouterr().out
    assert "wall_s: regression" in out and "cpu_s: regression" in out


def test_larger_failed_share_fails(perf_gate, tmp_path, capsys):
    change = [_run(w) for w in STEADY]
    change[2] = _run(STEADY[2], failed=1)
    _write_sets(tmp_path, [_run(w) for w in STEADY], change)
    assert perf_gate.gate(tmp_path) == 1
    assert "failed output checks" in capsys.readouterr().out


def test_equal_failed_share_passes(perf_gate, tmp_path):
    parent = [_run(w, failed=1 if i == 0 else 0) for i, w in enumerate(STEADY)]
    change = [_run(w, failed=1 if i == 4 else 0) for i, w in enumerate(STEADY)]
    _write_sets(tmp_path, parent, change)
    assert perf_gate.gate(tmp_path) == 0


def test_unresolved_alone_passes(perf_gate, tmp_path):
    runs = perf_gate.runs
    assert runs.judge(WIDE, WIDE, True, 0.25) == "unresolved"
    _write_sets(tmp_path, [_run(w) for w in WIDE], [_run(w) for w in WIDE])
    assert perf_gate.gate(tmp_path) == 0


def test_main_forwards_to_runs_and_judges_its_sets(
    perf_gate, tmp_path, monkeypatch
):
    """``main`` hands every argument to ``runs.main`` and then judges
    the sets it stored under ``--out``."""
    seen = []

    def fake_runs_main(argv):
        seen.append(argv)
        _write_sets(
            tmp_path / "sets",
            [_run(w) for w in STEADY],
            [_run(2.0 * w) for w in STEADY],
        )
        return 0

    monkeypatch.setattr(perf_gate.runs, "main", fake_runs_main)
    # neither side has bytecode caches, whatever this checkout holds
    monkeypatch.setattr(perf_gate, "ROOT", tmp_path)
    argv = ["figures_cold", "-n", "5", "--seconds", "5", "--parent", "p"]
    argv += ["--out", str(tmp_path / "sets")]
    assert perf_gate.main(argv) == 1
    assert seen == [argv]


def _checkout(root, cached):
    """A checkout with one module, and its bytecode when ``cached``."""
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("X = 1\n")
    if cached:
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
    return root


@pytest.mark.parametrize("cached_side", ["parent", "change"])
def test_bytecode_on_one_side_only_is_refused(
    perf_gate, tmp_path, monkeypatch, capsys, cached_side
):
    """A run with bytecode caches skips compilation: only one side having
    them would time the caches.  The gate refuses before any run."""
    parent = _checkout(tmp_path / "parent", cached_side == "parent")
    change = _checkout(tmp_path / "change", cached_side == "change")
    monkeypatch.setattr(perf_gate, "ROOT", change)
    started = []
    monkeypatch.setattr(perf_gate.runs, "main", started.append)
    argv = ["table51_cold", "--parent", str(parent), "--out", str(tmp_path / "s")]
    assert perf_gate.main(argv) == 2
    assert started == []
    err = capsys.readouterr().err
    assert str(tmp_path / cached_side) in err
    assert "PYTHONDONTWRITEBYTECODE=1" in err and "__pycache__" in err


@pytest.mark.parametrize("cached", [False, True])
def test_bytecode_on_both_sides_or_neither_runs(
    perf_gate, tmp_path, monkeypatch, cached
):
    parent = _checkout(tmp_path / "parent", cached)
    change = _checkout(tmp_path / "change", cached)
    monkeypatch.setattr(perf_gate, "ROOT", change)
    assert perf_gate.lopsided(parent, change) is None
    out = tmp_path / "sets"

    def fake_runs_main(argv):
        _write_sets(out, [_run(w) for w in STEADY], [_run(w) for w in STEADY])

    monkeypatch.setattr(perf_gate.runs, "main", fake_runs_main)
    argv = ["table51_cold", "--parent", str(parent), "--out", str(out)]
    assert perf_gate.main(argv) == 0
