"""Content-keyed sharding over any inner backend.

:class:`ShardedBackend` partitions cell batches into ``n_shards``
shards by *content key* -- the same SHA-256 the result store
addresses a cell by -- and dispatches shard after shard through an
inner backend.  Shard membership is therefore a pure function of the
cells themselves: every host that ever shards the same batches agrees
on the partition, which is the property the remote backend relies on
(ship shard ``k`` of ``n`` to a worker, merge by original position).
Within one host it also bounds a pool's in-flight work and gives the
event stream a natural progress unit (``shard_started`` /
``shard_finished``).

Results are reassembled into submission order, so a sharded run is
bit-identical to the serial reference regardless of the inner
backend.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.engine.cells import CellBatch, CellResult

from .base import EmitFn, ExecutorBackend, null_emit
from .serial import SerialBackend

__all__ = ["ShardedBackend", "shard_of_batch"]


def shard_of_batch(batch: CellBatch, n_shards: int) -> int:
    """Deterministic shard index of a cell batch.

    A batch travels as one unit (splitting it would forfeit the
    shared problem construction and vectorized solve), so it is
    keyed by its first cell's content key -- still a pure function of
    cell content, so every host agrees on the partition.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    key = batch.keys[0] if batch.keys is not None else batch.specs[0].key()
    return int(key[:8], 16) % n_shards


class ShardedBackend(ExecutorBackend):
    """Run content-keyed shards of the workload through ``inner``."""

    name = "sharded"

    def __init__(
        self,
        inner: Optional[ExecutorBackend] = None,
        n_shards: int = 4,
    ) -> None:
        if int(n_shards) < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.inner = inner if inner is not None else SerialBackend()
        self.n_shards = int(n_shards)

    def describe(self) -> str:
        """``sharded[K x inner]`` with the shard count and inner form."""
        return f"sharded[{self.n_shards} x {self.inner.describe()}]"

    def close(self) -> None:
        """Close the inner backend (idempotent)."""
        self.inner.close()

    def run_batches(
        self,
        batches: Sequence[CellBatch],
        emit: EmitFn = null_emit,
    ) -> List[List[CellResult]]:
        """Run content-keyed batch shards through the inner backend."""
        buckets: List[List[CellBatch]] = [[] for _ in range(self.n_shards)]
        positions: List[List[int]] = [[] for _ in range(self.n_shards)]
        for i, batch in enumerate(batches):
            shard = shard_of_batch(batch, self.n_shards)
            buckets[shard].append(batch)
            positions[shard].append(i)

        out: List[Optional[List[CellResult]]] = [None] * len(batches)
        for shard, (bucket, where) in enumerate(zip(buckets, positions)):
            if not bucket:
                continue
            n_cells = sum(len(batch) for batch in bucket)
            emit(
                "shard_started",
                shard=shard,
                n_shards=self.n_shards,
                n_cells=n_cells,
            )
            start = time.perf_counter()
            results = self.inner.run_batches(bucket, emit)
            emit(
                "shard_finished",
                shard=shard,
                n_shards=self.n_shards,
                n_cells=n_cells,
                seconds=round(time.perf_counter() - start, 6),
            )
            for index, cells in zip(where, results):
                out[index] = cells
        return out  # type: ignore[return-value]
