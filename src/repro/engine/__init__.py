"""Parallel experiment engine with content-addressed result caching.

The paper's evaluation regenerates ~14 tables/figures, each sweeping
(benchmark x stage x scheme x interval) sub-problems.  This package
decomposes those sweeps into pure *cells*
(:mod:`~repro.engine.cells`), executes them on one of two executor
backends -- serial in-process, or remote workers on this or other
machines (:mod:`~repro.engine.backends`) -- and memoises results
under content-hash keys (:mod:`~repro.serialization`): cells in
memory for the session, whole experiments in a tiered result store
(:mod:`~repro.engine.store`; on disk with ``--cache-dir``).  Progress
is observable as a structured event stream
(:mod:`~repro.engine.events`).

Guarantees:

* the remote backend produces bit-identical results to the serial
  reference (cells are pure functions of their specs; stochastic
  cells derive their RNG stream from the spec's content hash);
* a cell shared by several figures is computed exactly once per
  session (e.g. the offline SynTS/No-TS/per-core totals shared by
  ``headline`` and ``fig_6_18``);
* schemes and workloads are open registries
  (:mod:`repro.core.schemes`, :mod:`repro.workloads.registry`):
  a new comparison scheme or synthetic workload is a registration,
  not an engine change.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backends": ("ExecutorBackend", "RemoteBackend", "SerialBackend"),
        ".bootstrap": ("run_bootstrap",),
        ".cache": ("ResultCache",),
        ".cells": (
            "BenchmarkTotals", "CellBatch", "CellResult", "CellSpec",
            "benchmark_specs", "cached_interval_problems", "cell_seed",
            "compute_batch", "group_cells", "totalize",
        ),
        ".events": (
            "EngineEvent", "EventLog", "JsonLinesPrinter", "ProgressPrinter",
        ),
        ".executor": ("ExperimentEngine",),
        "repro.serialization": ("canonical_json", "content_key", "sanitize"),
        ".session": ("engine_session", "get_engine", "set_engine"),
        ".store": (
            "JsonDirStore", "MemoryStore", "ResultStore", "StoreStats",
            "TieredStore",
        ),
    },
)

__all__ = [
    "BenchmarkTotals",
    "CellBatch",
    "CellResult",
    "CellSpec",
    "EngineEvent",
    "EventLog",
    "ExecutorBackend",
    "ExperimentEngine",
    "JsonDirStore",
    "JsonLinesPrinter",
    "MemoryStore",
    "ProgressPrinter",
    "RemoteBackend",
    "ResultCache",
    "ResultStore",
    "SerialBackend",
    "StoreStats",
    "TieredStore",
    "benchmark_specs",
    "cached_interval_problems",
    "canonical_json",
    "cell_seed",
    "compute_batch",
    "content_key",
    "engine_session",
    "get_engine",
    "group_cells",
    "run_bootstrap",
    "sanitize",
    "set_engine",
    "totalize",
]
