"""Process-pool backend: the engine's historical ``--jobs N`` path.

Worker processes run the registry bootstrap hook
(:mod:`repro.engine.bootstrap`) as their pool initialiser, so
schemes/workloads named by ``REPRO_BOOTSTRAP=module:function``
resolve in every worker regardless of the multiprocessing start method.  Registrations
made at *runtime* without the hook remain start-method dependent:
``fork`` (Linux default) inherits registrations made before the pool
spins up, ``spawn`` (macOS/Windows) re-imports the code and sees
none.  Before shipping a multi-batch dispatch, the backend probes one
worker's registries and fails with an actionable error naming the
missing entries -- *before* any cell is computed, instead of as a
pickled ``KeyError`` traceback from mid-run.

Sandboxed / fork-restricted environments (worker spawn denied, child
killed) degrade to the serial path -- loudly, via stderr and a
``backend_fallback`` event -- which is result-identical by
construction.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence, Set, Tuple

from repro.engine.cells import CellBatch, CellResult, compute_batch

from .base import (
    EmitFn,
    ExecutorBackend,
    emit_batch_cells,
    needed_registry_names,
    null_emit,
)

__all__ = ["ProcessBackend", "pool_chunksize"]


def pool_chunksize(n_tasks: int, workers: int) -> int:
    """Chunk size for ``pool.map`` over ``n_tasks`` submissions.

    ``chunksize=1`` maximises balance but pays one IPC round-trip per
    task -- for sub-millisecond batches that round-trip *is* the cost.
    A quarter of an even split (at least 1) keeps every worker busy
    with four waves while cutting round-trips by the chunk factor.
    """
    return max(1, n_tasks // (4 * max(1, workers)))


def _pool_initializer() -> None:
    """Run the registry bootstrap in a freshly started pool worker."""
    from repro.engine.bootstrap import run_bootstrap

    run_bootstrap()


def _worker_registry_names() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """A worker's registered (scheme, workload) names (probe task)."""
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.workloads.registry import WORKLOAD_REGISTRY

    return SCHEME_REGISTRY.names(), WORKLOAD_REGISTRY.names()


def _missing_registry_message(
    missing_schemes: Set[str], missing_benchmarks: Set[str]
) -> str:
    """Actionable error text for a worker-side registry gap."""
    from repro.engine.bootstrap import BOOTSTRAP_REMEDY

    missing = sorted(missing_schemes | missing_benchmarks)
    return (
        f"process-pool workers cannot resolve {missing}: workers "
        "re-import the code (or forked before the registration) and do "
        f"not see schemes/workloads registered at runtime. "
        f"{BOOTSTRAP_REMEDY}; register from a module the workers "
        "import, or use the serial backend."
    )


class ProcessBackend(ExecutorBackend):
    """``concurrent.futures.ProcessPoolExecutor`` over ``compute_batch``."""

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        if int(workers) < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def describe(self) -> str:
        """``process[N]`` where N is the worker count."""
        return f"process[{self.workers}]"

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_initializer,
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _validate_registries(self, batches: Sequence[CellBatch]) -> None:
        """Probe one worker's registries before shipping a dispatch.

        Raises the actionable ``RuntimeError`` when a scheme/workload
        the pending cells need is missing worker-side (the probe
        reflects bootstrap hooks and fork inheritance, so it is exact
        for the pool's actual state).  A pool too broken to probe is
        left for the dispatch path's loud serial fallback.
        """
        needed_schemes, needed_benchmarks = needed_registry_names(batches)
        try:
            pool = self._ensure_pool()
            schemes, benchmarks = pool.submit(
                _worker_registry_names
            ).result()
        except (OSError, BrokenProcessPool, RuntimeError):
            return  # unusable pool: the dispatch path degrades loudly
        missing_schemes = needed_schemes - set(schemes)
        missing_benchmarks = needed_benchmarks - set(benchmarks)
        if missing_schemes or missing_benchmarks:
            raise RuntimeError(
                _missing_registry_message(
                    missing_schemes, missing_benchmarks
                )
            )

    def run_batches(
        self,
        batches: Sequence[CellBatch],
        emit: EmitFn = null_emit,
    ) -> List[List[CellResult]]:
        """Ship one batch per pool task; registry-validate up front.

        A worker-side registry ``KeyError`` becomes the actionable
        RuntimeError; a broken/denied pool degrades loudly to the
        serial reference for whatever the pool had not yet delivered
        (delivered results are valid and already emitted).
        """
        if len(batches) <= 1:
            # one batch is cheaper in-process than a pool round-trip
            return super().run_batches(batches, emit)
        self._validate_registries(batches)
        results: List[List[CellResult]] = []
        try:
            pool = self._ensure_pool()
            chunk = pool_chunksize(len(batches), self.workers)
            for batch, cells in zip(
                batches, pool.map(compute_batch, batches, chunksize=chunk)
            ):
                # shared pool clock: completion without a timing claim
                emit_batch_cells(emit, batch, seconds=None)
                results.append(list(cells))
            return results
        except KeyError as exc:
            # a worker failed a registry lookup the submitting process
            # passed (a race past the up-front probe): say so, instead
            # of letting a bare pickled KeyError traceback surface
            raise RuntimeError(
                f"worker process failed a registry lookup: {exc}. "
                "Process-pool workers re-import the code and do not "
                "see schemes/workloads registered at runtime; set "
                "REPRO_BOOTSTRAP=module:function, use the serial "
                "backend, or register from a module the workers import."
            ) from exc
        except (OSError, BrokenProcessPool) as exc:
            print(
                f"repro engine: parallel execution unavailable "
                f"({exc!r}); falling back to serial",
                file=sys.stderr,
            )
            emit(
                "backend_fallback",
                backend=self.describe(),
                error=repr(exc),
            )
            broken = self._pool
            self._pool = None
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            return results + super().run_batches(
                batches[len(results):], emit
            )
