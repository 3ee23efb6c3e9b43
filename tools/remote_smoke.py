#!/usr/bin/env python3
"""Loopback smoke for the remote executor backend.

Starts N local ``python -m repro worker`` subprocesses on free ports,
regenerates an experiment once on the serial reference backend and
once over the loopback workers (fresh engine sessions, so nothing is
served from a shared cache), and asserts the two results are
bit-identical.  CI's docs job runs this with the defaults (2 workers
over ``fig_6_18``); it is also the quickest local rehearsal of a
distributed run.

Usage::

    PYTHONPATH=src python tools/remote_smoke.py [--experiment fig_6_18]
                                                [--workers 2]
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    """Run the smoke; return 0 on bit-identical results."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="fig_6_18",
        help="experiment id to regenerate (default: fig_6_18)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="loopback worker count (default: 2)",
    )
    args = parser.parse_args(argv)

    from repro.engine import ExperimentEngine, engine_session
    from repro.engine.worker import start_loopback_workers, stop_workers
    from repro.experiments import EXPERIMENTS

    if args.experiment not in EXPERIMENTS:
        print(
            f"remote_smoke: unknown experiment {args.experiment!r}; "
            f"have {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    run = EXPERIMENTS[args.experiment]

    processes, addresses = start_loopback_workers(args.workers)
    print(f"remote_smoke: workers up at {', '.join(addresses)}")
    try:
        start = time.perf_counter()
        with engine_session():
            serial = run()
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        with engine_session(ExperimentEngine(remote_workers=addresses)) as engine:
            remote = run()
            backend = engine.backend.describe()
        remote_s = time.perf_counter() - start
    finally:
        stop_workers(processes)

    if remote != serial:
        print(
            f"remote_smoke: FAIL -- {args.experiment} differs between "
            f"serial and {backend}",
            file=sys.stderr,
        )
        return 1
    print(
        f"remote_smoke: OK -- {args.experiment} bit-identical on "
        f"{backend} (serial {serial_s:.2f}s, remote {remote_s:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
