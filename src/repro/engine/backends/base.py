"""The executor-backend seam.

A backend answers exactly one question: *given pending cell specs,
produce their results* -- scheduling, worker pools and sharding are
its business; dedup, caching and result assembly stay in
:class:`~repro.engine.executor.ExperimentEngine`.  Because cells are
pure functions of their specs, every backend is required to be
bit-identical to :class:`~repro.engine.backends.serial.SerialBackend`;
the parallel-equivalence property test enforces it for all registered
backends.

Backends receive an ``emit`` callable and report per-cell progress
(``cell_computed``, with wall seconds where the schedule makes the
attribution honest) plus backend-specific events (shard progress,
pool fallbacks).  Emission must never affect results.

Multi-host distribution is just another subclass:
:class:`~repro.engine.backends.remote.RemoteBackend` ships content-keyed
shards of batches to worker processes on other machines.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.cells import CellBatch, CellResult

__all__ = [
    "ExecutorBackend",
    "EmitFn",
    "null_emit",
    "emit_batch_cells",
    "needed_registry_names",
]

#: ``emit(kind, **fields)``: the engine's event channel, handed to
#: backends for per-cell / per-shard progress.
EmitFn = Callable[..., None]


def null_emit(kind: str, **fields: Any) -> None:
    """No-op emitter for standalone backend use."""


def emit_batch_cells(
    emit: EmitFn, batch: "CellBatch", seconds: Optional[float] = None
) -> None:
    """Per-cell ``cell_computed`` events for one finished batch.

    Wall time, when attributable, is shared equally across the
    batch's cells (the batch is the unit that was actually timed);
    pass ``seconds=None`` under shared pool clocks.
    """
    share = (
        round(seconds / len(batch.specs), 6) if seconds is not None else None
    )
    for spec in batch.specs:
        fields = {
            "benchmark": spec.benchmark,
            "stage": spec.stage,
            "scheme": spec.scheme,
            "interval": spec.interval,
        }
        if share is not None:
            fields["seconds"] = share
        emit("cell_computed", **fields)


def needed_registry_names(batches: Sequence["CellBatch"]) -> tuple:
    """(scheme names, benchmark names) the pending batches resolve.

    The up-front registry validation of worker-shipping backends
    (process pool, remote) checks these against the workers' actual
    registries before any cell is dispatched.
    """
    schemes = {spec.scheme for batch in batches for spec in batch.specs}
    benchmarks = {
        spec.benchmark for batch in batches for spec in batch.specs
    }
    return schemes, benchmarks


class ExecutorBackend:
    """Strategy interface for computing a batch of pending cells."""

    #: Stable registry name (``serial``, ``process``, ``remote``, ...).
    name: str = "abstract"

    def run_batches(
        self,
        batches: Sequence["CellBatch"],
        emit: EmitFn = null_emit,
    ) -> List[List["CellResult"]]:
        """Compute cell batches; the outer list aligns with ``batches``.

        A batch (cells sharing benchmark/stage/scheme/overrides) is
        the engine's dispatch unit: problem construction, theta
        resolution and any vectorized scheme solve amortise over it,
        and pool-based backends ship one batch per task.  Batches
        arrive deduplicated and cache-missed by the engine.  The
        default runs them in order in-process; subclasses override the
        scheduling only -- results must stay bit-identical to this
        reference (batches are pure functions of their specs).
        """
        from repro.engine.cells import compute_batch

        results: List[List["CellResult"]] = []
        for batch in batches:
            start = time.perf_counter()
            cells = list(compute_batch(batch))
            emit_batch_cells(
                emit, batch, seconds=time.perf_counter() - start
            )
            results.append(cells)
        return results

    def close(self) -> None:
        """Release worker pools / remote connections (idempotent)."""

    def describe(self) -> str:
        """Human-readable form for progress events (``process[4]``)."""
        return self.name

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
