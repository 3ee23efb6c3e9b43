#!/usr/bin/env python3
"""Warm-cache acceptance check for the result-store tiers.

Runs the paper's fig_6_18 sweep through the real CLI and asserts the
caching economics the store subsystem promises, via ``--log-json``
event counts:

1. **Warm client** -- two runs against one shared ``--cache-dir``:
   the first computes cells and leaves exactly one entry per computed
   experiment (cells are never persisted), the second computes
   *zero*.
2. **Warm workers** -- two runs against two loopback ``repro worker
   --cache-dir`` processes, each run with a *fresh* client cache:
   the first computes cells (on the workers), the second computes
   zero -- every cell arrives as a worker-tagged ``cell_cached``
   through the delta protocol.

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
    """Run both warm-cache phases; return 0 when the economics hold."""
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

        # ---- phase 1: shared client cache dir, two runs ------------
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

        # ---- phase 2: worker-side stores, fresh client each run ----
        from repro.engine.worker import start_loopback_workers, stop_workers

        worker_cache = str(root / "worker-cache")
        processes, addresses = start_loopback_workers(
            2, extra_args=["--cache-dir", worker_cache]
        )
        try:
            base = [
                args.experiment,
                "--backend",
                "remote",
                "--workers",
                ",".join(addresses),
            ]
            first = _run_cli(
                [*base, "--cache-dir", str(root / "client-a")], env
            )
            second = _run_cli(
                [*base, "--cache-dir", str(root / "client-b")], env
            )
        finally:
            stop_workers(processes)
        first_computed = _count(first, "cell_computed")
        second_computed = _count(second, "cell_computed")
        second_cached = [
            event
            for event in second
            if event.get("event") == "cell_cached" and event.get("worker")
        ]
        print(
            f"warm-worker: first client computed {first_computed} cells "
            f"on the workers, second client computed {second_computed} "
            f"({len(second_cached)} served from worker stores)"
        )
        if first_computed == 0:
            failures.append("first remote run computed no cells")
        if second_computed != 0:
            failures.append(
                f"warm-worker run recomputed {second_computed} cells "
                "(expected 0: the delta protocol should have served "
                "them from the worker stores)"
            )
        if not second_cached:
            failures.append(
                "warm-worker run reported no worker-tagged cell_cached "
                "events"
            )

    if failures:
        for failure in failures:
            print(f"warm_cache_check: FAIL -- {failure}", file=sys.stderr)
        return 1
    print("warm_cache_check: OK -- second runs paid zero cell evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
