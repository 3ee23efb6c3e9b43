#!/usr/bin/env python3
"""Regenerate the golden outputs under ``tests/golden/``.

Each ``tests/golden/<experiment>.json`` pins one experiment bit for
bit, so a refactor or a performance change can show that it moved no
value.  A file holds:

* ``experiment_id`` -- an ``EXPERIMENTS`` id, or ``ablation_<name>``
  for an ``ABLATIONS`` entry;
* ``payload`` -- the experiment's ``ExperimentResult.to_payload()`` at
  default arguments, regenerated in a fresh serial engine, as
  canonical JSON (Python's float repr round-trips exactly).  A driver
  that returns a dict of results (``fig_6_17``) pins each entry under
  its name;
* ``extras`` -- named lists of ``[label, float.hex()]`` pairs for
  exact values the payload rounds away.  Table 5.1 stores the
  absolute ring-oscillator periods per voltage, because its table
  shows only 3-decimal multipliers;
* ``versions`` -- the numpy and scipy versions that produced the
  file.  Table 5.1 computes on plain Python floats and has none.

``tests/experiments/test_golden.py`` regenerates every file's content
and names the first difference.  It requires exact equality when the
installed numpy and scipy match the file's ``versions`` (or the file
has none), and agreement to :data:`REL_TOL` relative when they differ.
A change that moves values on purpose reruns this tool and shows the
diff.  Every registered experiment and ablation is pinned; one that
needs extras gets a producer in ``_EXTRAS``.

The tool also pins content keys in ``tests/golden/keys/content_keys.json``
(a subdirectory, so the per-experiment ``*.json`` set stays exact): the
experiment-level key of every ``EXPERIMENTS`` and ``ABLATIONS`` entry at
default arguments, and one ``CellSpec.key()`` per registered scheme.  A
moved key silently turns every warm ``--cache-dir`` cold, so a refactor
must leave this file byte-identical.  Experiment keys come from a stub
engine that returns the key and never runs the computation.

Usage::

    PYTHONPATH=src python tools/update_golden.py [experiment ...] [--check]
    PYTHONPATH=src python tools/update_golden.py --keys [--check]

With no experiment ids, every entry of :data:`GOLDEN` is regenerated,
then the key pins.  ``--keys`` handles the key pins only.  ``--check``
writes nothing: it prints the first difference per file and exits
non-zero when any file is stale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Dict, List, Optional

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"
KEYS_PATH = GOLDEN_DIR / "keys" / "content_keys.json"

#: Cell coordinates of the per-scheme ``CellSpec.key()`` pins.
KEY_CELL = {"benchmark": "radix", "stage": "decode", "interval": 0}


def ring_periods(sweep) -> List[List[str]]:
    """``[vdd, period.hex()]`` pairs of a ring-oscillator sweep, in
    sweep order."""
    return [[repr(vdd), float(period).hex()] for vdd, period in sweep.periods.items()]


def _table_5_1_extras() -> Dict[str, List[List[str]]]:
    from repro.circuit.ring_oscillator import sweep_ring_oscillator

    return {"ring_periods": ring_periods(sweep_ring_oscillator())}


def _no_extras() -> Dict[str, List[List[str]]]:
    return {}


#: experiment id -> producer of its ``extras``, for the experiments
#: that pin more than their payload
_EXTRAS = {"table_5_1": _table_5_1_extras}


def _golden_ids() -> List[str]:
    """Every ``EXPERIMENTS`` id, then ``ablation_<name>`` for every
    ``ABLATIONS`` entry."""
    from repro.experiments import EXPERIMENTS
    from repro.experiments.ablations import ABLATIONS

    return [*EXPERIMENTS, *(f"ablation_{name}" for name in ABLATIONS)]


#: experiment id -> producer of its ``extras``: every registered
#: experiment and ablation, so a newly registered one has no golden
#: file until this tool writes it, and the golden tests say so
GOLDEN: Dict[str, Callable[[], Dict[str, List[List[str]]]]] = {
    experiment_id: _EXTRAS.get(experiment_id, _no_extras)
    for experiment_id in _golden_ids()
}

#: Goldens computed on plain Python floats: no ``versions`` header,
#: compared exactly on any numpy and scipy.
UNVERSIONED = frozenset({"table_5_1"})

#: Relative tolerance of a float comparison when the installed numpy
#: or scipy differs from the versions a golden file records.
REL_TOL = 1e-12


def library_versions() -> Dict[str, str]:
    """The installed numpy and scipy versions."""
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def tolerance(expected: dict) -> float:
    """Relative float tolerance for checking against ``expected``:
    exact unless it records library versions other than the installed
    ones."""
    versions = expected.get("versions")
    if versions is None or versions == library_versions():
        return 0.0
    return REL_TOL


def payload_of(result):
    """Canonical JSON image of a result, or of each entry of a dict of
    results."""
    from repro.serialization import canonical_json

    if isinstance(result, dict):
        return {name: payload_of(item) for name, item in result.items()}
    return json.loads(canonical_json(result.to_payload()))


def golden_record(
    result,
    extras: Dict[str, List[List[str]]],
    experiment_id: Optional[str] = None,
    versions: Optional[Dict[str, str]] = None,
) -> dict:
    """The golden-file content of one regenerated experiment.

    ``experiment_id`` defaults to the result's own id; a dict of
    results needs it given.
    """
    record = {
        "experiment_id": experiment_id or result.experiment_id,
        "payload": payload_of(result),
        "extras": extras,
    }
    if versions is not None:
        record["versions"] = versions
    return record


def producer(experiment_id: str) -> Callable:
    """The zero-argument callable that regenerates a golden id."""
    from repro.experiments import EXPERIMENTS
    from repro.experiments.ablations import ABLATIONS

    if experiment_id.startswith("ablation_"):
        return ABLATIONS[experiment_id[len("ablation_"):]]
    return EXPERIMENTS[experiment_id]


def regenerate(experiment_id: str) -> dict:
    """Regenerate one experiment's golden record in a fresh serial
    engine."""
    from repro.engine import engine_session

    with engine_session():
        result = producer(experiment_id)()
    versions = None if experiment_id in UNVERSIONED else library_versions()
    return golden_record(
        result, GOLDEN[experiment_id](), experiment_id, versions
    )


def path_of(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id}.json"


def load(experiment_id: str) -> dict:
    return json.loads(path_of(experiment_id).read_text())


def dump(record: dict) -> str:
    """Stable, diff-friendly text of a golden record."""
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _first_path(
    expected, actual, path: str, rel_tol: float = 0.0
) -> Optional[str]:
    """JSON path of the first place two JSON values differ.

    Floats within ``rel_tol`` relative of each other count as equal.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            found = _first_path(
                expected[key], actual[key], f"{path}.{key}", rel_tol
            )
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (a, b) in enumerate(zip(expected, actual)):
            found = _first_path(a, b, f"{path}[{i}]", rel_tol)
            if found:
                return found
        if len(expected) != len(actual):
            return f"{path} (length {len(expected)} != {len(actual)})"
        return None
    if (
        rel_tol
        and type(expected) is float
        and type(actual) is float
        and math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=0.0)
    ):
        return None
    # bool is an int subclass: compare types too, so true != 1
    if type(expected) is not type(actual) or expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def first_difference(
    expected: dict, actual: dict, rel_tol: float = 0.0
) -> Optional[str]:
    """Describe the first difference between two golden records, or
    ``None`` when they are identical (floats to ``rel_tol`` relative).

    Extras are compared pair by pair, so a differing value is named by
    its label (for Table 5.1, the voltage).  The ``versions`` header
    is provenance, not a value, and is not compared.
    """
    want_extras = expected.get("extras", {})
    got_extras = actual.get("extras", {})
    for name in sorted(set(want_extras) | set(got_extras)):
        pairs = zip_longest(want_extras.get(name, []), got_extras.get(name, []))
        for want, got in pairs:
            if want != got:
                label = (want or got)[0]
                return f"extras.{name} at {label}: expected {want}, got {got}"
    skip = ("extras", "versions")
    return _first_path(
        {k: v for k, v in expected.items() if k not in skip},
        {k: v for k, v in actual.items() if k not in skip},
        "",
        rel_tol,
    )


class _KeyEngine:
    """Stub engine: ``experiment()`` returns the key the real engine
    would store the result under, and never runs the computation."""

    def experiment(self, key_parts, thunk) -> str:
        from repro.serialization import content_key

        return content_key("experiment", list(key_parts))


def content_keys() -> dict:
    """Content keys at default arguments: one per experiment, ablation
    and registered scheme.

    Registrations from ``REPRO_BOOTSTRAP`` would join the registry
    fingerprints, so the variable is ignored here.
    """
    os.environ.pop("REPRO_BOOTSTRAP", None)
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.engine import CellSpec
    from repro.engine.session import get_engine, set_engine
    from repro.experiments import EXPERIMENTS
    from repro.experiments.ablations import ABLATIONS

    previous = get_engine()
    set_engine(_KeyEngine())  # type: ignore[arg-type]
    try:
        # every driver returns what its engine.experiment() returns
        experiments = {name: run() for name, run in EXPERIMENTS.items()}
        ablations = {name: run() for name, run in ABLATIONS.items()}
    finally:
        set_engine(previous)
    cells = {
        name: CellSpec(scheme=name, **KEY_CELL).key()
        for name in SCHEME_REGISTRY.names()
    }
    return {
        "cell": KEY_CELL,
        "cells": cells,
        "experiments": experiments,
        "ablations": ablations,
    }


def _update_keys(check: bool) -> int:
    """Check or rewrite the key pins; 1 when ``check`` finds them stale."""
    record = content_keys()
    name = KEYS_PATH.name
    if check:
        diff = (
            _first_path(json.loads(KEYS_PATH.read_text()), record, "")
            if KEYS_PATH.exists()
            else "missing file"
        )
        print(f"{name}: {diff or 'ok'}")
        return diff is not None
    old = KEYS_PATH.read_text() if KEYS_PATH.exists() else None
    text = dump(record)
    if old == text:
        print(f"{name}: unchanged")
        return 0
    KEYS_PATH.parent.mkdir(parents=True, exist_ok=True)
    KEYS_PATH.write_text(text)
    diff = _first_path(json.loads(old), record, "") if old else "new file"
    print(f"{name}: wrote ({diff})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("experiments", nargs="*", metavar="experiment")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed files instead of writing them",
    )
    parser.add_argument(
        "--keys",
        action="store_true",
        help="only the content-key pins (no experiment is computed)",
    )
    args = parser.parse_args(argv)
    if args.keys:
        if args.experiments:
            parser.error("--keys takes no experiment ids")
        return _update_keys(args.check)
    unknown = [e for e in args.experiments if e not in GOLDEN]
    if unknown:
        parser.error(f"no golden producer for {unknown}; known: {sorted(GOLDEN)}")

    stale = 0
    for experiment_id in args.experiments or sorted(GOLDEN):
        record = regenerate(experiment_id)
        path = path_of(experiment_id)
        if args.check:
            if path.exists():
                expected = load(experiment_id)
                diff = first_difference(expected, record, tolerance(expected))
            else:
                diff = "missing file"
            stale += diff is not None
            print(f"{experiment_id}: {diff or 'ok'}")
            continue
        old = path.read_text() if path.exists() else None
        text = dump(record)
        if old == text:
            print(f"{experiment_id}: unchanged")
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        diff = first_difference(json.loads(old), record) if old else "new file"
        print(f"{experiment_id}: wrote {path.name} ({diff})")
    if not args.experiments:
        stale += _update_keys(args.check)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
