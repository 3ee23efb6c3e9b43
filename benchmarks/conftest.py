"""Benchmark-harness configuration.

Each ``test_bench_*`` file regenerates one published table/figure
under pytest-benchmark (single round: the figures are deterministic
end-to-end computations, and the timing of interest is "how long a
regeneration takes", not micro-variance).

Every regeneration runs inside its own engine session so figures are
timed cold by default; the harness honours these environment knobs:

* ``REPRO_BENCH_JOBS``       -- workers for experiment cells
  (default 1: the serial reference path);
* ``REPRO_BENCH_BACKEND``    -- executor backend name (``serial`` /
  ``process`` / ``sharded`` / ``remote``; default: the engine's
  jobs-based choice);
* ``REPRO_BENCH_WORKERS``    -- remote worker addresses for the
  ``remote`` backend (``host1:port,host2:port``), or ``auto[:N]`` to
  spawn N loopback workers (default 2) for the whole benchmark
  session -- the configuration CI's loopback smoke mirrors;
* ``REPRO_BENCH_CACHE_DIR``  -- share an on-disk result cache across
  figures/sessions (warm-run benchmarking).

After each figure the harness drops a machine-readable timing record
``BENCH_<test>.json`` (wall seconds, engine cache stats, and the
regenerated ``ExperimentResult`` summary) into
``REPRO_BENCH_JSON_DIR`` (default ``benchmarks/results``) so CI can
track the perf trajectory artifact-by-artifact.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import engine_session
from repro.experiments.common import ExperimentResult


def _results_dir() -> Path:
    out = Path(
        os.environ.get(
            "REPRO_BENCH_JSON_DIR", Path(__file__).parent / "results"
        )
    )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summarize(result) -> object:
    """JSON summary of whatever the driver returned."""
    if isinstance(result, ExperimentResult):
        return {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "n_rows": len(result.rows),
            "n_series": len(result.series),
            "notes": result.to_payload()["notes"],
        }
    if isinstance(result, dict):
        return {
            key: _summarize(value)
            for key, value in result.items()
            if isinstance(value, ExperimentResult)
        }
    return repr(result)


@pytest.fixture(scope="session")
def bench_remote_workers():
    """Remote worker addresses for ``REPRO_BENCH_BACKEND=remote``.

    ``REPRO_BENCH_WORKERS`` names them explicitly; ``auto[:N]`` (or
    leaving it unset with the remote backend selected) spawns N
    loopback workers (default 2) that live for the whole session.
    Yields ``None`` when the remote backend is not in play.
    """
    spec = os.environ.get("REPRO_BENCH_WORKERS") or None
    backend = os.environ.get("REPRO_BENCH_BACKEND") or None
    if backend != "remote" and spec is None:
        yield None
        return
    if spec is not None and not spec.startswith("auto"):
        yield spec
        return
    from repro.engine.worker import start_loopback_workers, stop_workers

    n = 2
    if spec is not None and ":" in spec:
        n = max(1, int(spec.split(":", 1)[1]))
    processes, addresses = start_loopback_workers(n)
    try:
        yield ",".join(addresses)
    finally:
        stop_workers(processes)


@pytest.fixture
def regenerate(benchmark, request, bench_remote_workers):
    """Run an experiment once under the benchmark clock, record a
    BENCH_*.json timing entry, and return the result for shape
    assertions."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    backend = os.environ.get("REPRO_BENCH_BACKEND") or None
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR") or None

    def _run(fn, *args, **kwargs):
        # drop the process-global problem and error-curve memos so
        # each figure's wall time is cold regardless of which figures
        # ran before it -- otherwise the BENCH_*.json records depend
        # on collection order
        from repro.engine.cells import _interval_problems
        from repro.errors.probability import clear_curve_cache

        _interval_problems.cache_clear()
        clear_curve_cache()
        with engine_session(
            jobs=jobs,
            cache_dir=cache_dir,
            backend=backend,
            remote_workers=bench_remote_workers,
        ) as engine:
            start = time.perf_counter()
            result = benchmark.pedantic(
                fn, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
            elapsed = time.perf_counter() - start
            record = {
                "test": request.node.name,
                "seconds": round(elapsed, 6),
                "jobs": jobs,
                "backend": engine.backend.describe(),
                "cache_dir": cache_dir,
                "cache": engine.stats.as_dict(),
                "cells_computed": engine.cells_computed,
                "result": _summarize(result),
            }
        path = _results_dir() / f"BENCH_{request.node.name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        return result

    return _run
