#!/usr/bin/env python3
"""Warm-cache acceptance check for the result-store tiers.

Runs the paper's fig_6_18 sweep through the real CLI and asserts the
caching economics the store subsystem promises, via ``--log-json``
event counts: two runs against one shared ``--cache-dir``, where the
first computes cells and leaves exactly one entry per computed
experiment (cells are never persisted), and the second computes
*zero*.

CI's warm-cache job runs this; it is also the quickest local probe
that a store change did not silently break reuse.

Usage::

    PYTHONPATH=src python tools/warm_cache_check.py [--experiment fig_6_18]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _cli_env() -> dict:
    """Environment for CLI subprocesses (repro importable)."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
    )
    return env


def _run_cli(args: list, env: dict) -> list:
    """Run ``python -m repro <args> --log-json``; return its events."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--log-json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"warm_cache_check: `repro {' '.join(args)}` exited "
            f"{proc.returncode}"
        )
    events = []
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            events.append(json.loads(line))
    return events


def _count(events: list, kind: str) -> int:
    return sum(1 for event in events if event.get("event") == kind)


def main(argv=None) -> int:
    """Run the warm-cache check; return 0 when the economics hold."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="fig_6_18",
        help="experiment id to regenerate (default: fig_6_18)",
    )
    args = parser.parse_args(argv)
    env = _cli_env()
    failures = []

    with tempfile.TemporaryDirectory(prefix="warmcache-") as root:
        root = Path(root)

        shared = str(root / "client-cache")
        cold = _run_cli([args.experiment, "--cache-dir", shared], env)
        warm = _run_cli([args.experiment, "--cache-dir", shared], env)
        cold_computed = _count(cold, "cell_computed")
        warm_computed = _count(warm, "cell_computed")
        experiments = _count(cold, "experiment_computed")
        entries = sorted(Path(shared).glob("??/*.json"))
        cell_entries = [
            path
            for path in entries
            if json.loads(path.read_text()).get("kind")
            not in ("result", "mapping")
        ]
        print(
            f"warm-client: cold run computed {cold_computed} cells and "
            f"{experiments} experiments into {len(entries)} entries, "
            f"warm run computed {warm_computed}"
        )
        if cold_computed == 0:
            failures.append("cold client run computed no cells")
        if len(entries) != experiments:
            failures.append(
                f"cold client run left {len(entries)} entries for "
                f"{experiments} computed experiments (expected equal)"
            )
        if cell_entries:
            failures.append(
                f"cold client run persisted {len(cell_entries)} "
                "non-experiment entries, e.g. "
                f"{cell_entries[0].name}"
            )
        if warm_computed != 0:
            failures.append(
                f"warm client run recomputed {warm_computed} cells "
                "(expected 0)"
            )

    if failures:
        for failure in failures:
            print(f"warm_cache_check: FAIL -- {failure}", file=sys.stderr)
        return 1
    print("warm_cache_check: OK -- the second run paid zero cell evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
