"""The executor-backend seam.

A backend answers exactly one question: *given pending cell batches,
produce their results* -- scheduling and sharding are its business;
dedup, caching and result assembly stay in
:class:`~repro.engine.executor.ExperimentEngine`.  Because cells are
pure functions of their specs, every backend is required to be
bit-identical to :class:`~repro.engine.backends.serial.SerialBackend`;
the parallel-equivalence property test enforces it for the remote
backend.

Backends receive an ``emit`` callable and report per-cell progress
(``cell_computed``, with the batch's wall time shared across its
cells) plus backend-specific events (shard progress, lost workers).
Emission must never affect results.

Multi-host distribution is just another subclass:
:class:`~repro.engine.backends.remote.RemoteBackend` ships content-keyed
shards of batches to worker processes on other machines.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.cells import CellBatch, CellResult

__all__ = [
    "ExecutorBackend",
    "EmitFn",
    "null_emit",
]

#: ``emit(kind, **fields)``: the engine's event channel, handed to
#: backends for per-cell / per-shard progress.
EmitFn = Callable[..., None]


def null_emit(kind: str, **fields: Any) -> None:
    """No-op emitter for standalone backend use."""


class ExecutorBackend:
    """Strategy interface for computing a batch of pending cells."""

    #: Stable table name (``serial`` or ``remote``).
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
        and the remote backend ships whole batches.  Batches arrive
        deduplicated and cache-missed by the engine.  The
        default runs them in order in-process; subclasses override the
        scheduling only -- results must stay bit-identical to this
        reference (batches are pure functions of their specs).

        Each cell's ``cell_computed`` event carries an equal share of
        its batch's wall time: the batch is the unit that was timed.
        """
        from repro.engine.cells import compute_batch

        results: List[List["CellResult"]] = []
        for batch in batches:
            start = time.perf_counter()
            cells = list(compute_batch(batch))
            share = round((time.perf_counter() - start) / len(cells), 6)
            for spec in batch.specs:
                emit(
                    "cell_computed",
                    benchmark=spec.benchmark,
                    stage=spec.stage,
                    scheme=spec.scheme,
                    interval=spec.interval,
                    seconds=share,
                )
            results.append(cells)
        return results

    def close(self) -> None:
        """Release remote connections (idempotent)."""

    def describe(self) -> str:
        """Human-readable form for progress events (``remote[2]``)."""
        return self.name

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
