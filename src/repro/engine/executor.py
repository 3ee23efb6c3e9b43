"""The experiment engine: fan cells out, memoise everything.

:class:`ExperimentEngine` is the single entry point the drivers, the
CLI and the benchmark harness go through:

* ``run_cells(specs)`` -- evaluate experiment cells, deduplicated and
  memoised for the session, on an :class:`ExecutorBackend` (serial,
  or remote workers).  Both produce bit-identical
  :class:`~repro.engine.cells.CellResult` lists because cells are
  pure functions of their specs.
* ``experiment(key_parts, thunk)`` -- whole-figure memoisation: the
  thunk's :class:`~repro.experiments.common.ExperimentResult` (or dict
  of them) is the only payload the store keeps, in memory and -- with
  a ``cache_dir`` -- on disk, so a warm rerun of e.g. ``table_5_1``
  skips the transient circuit simulation entirely.

Progress is observable: subscribe a callback (or the CLI's
``--progress`` / ``--log-json`` printers) and the engine emits
:class:`~repro.engine.events.EngineEvent`s for every cache hit, cell
computation, shard, corrupt cache entry and experiment memo decision.
Events never influence results.

The engine never mutates global state; sessions are managed by
:mod:`repro.engine.session`.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union,
)

from repro.serialization import content_key

from .backends import ExecutorBackend, SerialBackend
from .store import MemoryStore, ResultStore, StoreStats

if TYPE_CHECKING:
    from .cells import CellResult, CellSpec
    from .events import EventCallback

# cells load in run_cells and events in _emit: a rerun served by
# experiment() hits alone, with no subscriber, never imports them

__all__ = ["ExperimentEngine"]


def _encode_value(value: Any) -> Dict[str, Any]:
    """Codec for experiment-level payloads (lazy import: no cycles)."""
    from repro.experiments.common import ExperimentResult

    if isinstance(value, ExperimentResult):
        return {"kind": "result", "value": value.to_payload()}
    if isinstance(value, dict) and all(
        isinstance(v, ExperimentResult) for v in value.values()
    ):
        return {
            "kind": "mapping",
            "value": {k: v.to_payload() for k, v in value.items()},
        }
    raise TypeError(
        "experiment() thunks must return an ExperimentResult or a dict "
        f"of them, got {type(value).__name__}"
    )


def _decode_value(payload: Dict[str, Any]) -> Any:
    from repro.experiments.common import ExperimentResult

    if payload["kind"] == "result":
        return ExperimentResult.from_payload(payload["value"])
    return {
        k: ExperimentResult.from_payload(v)
        for k, v in payload["value"].items()
    }


class ExperimentEngine:
    """Cell executor + result store for one session.

    The configuration follows from the inputs: ``remote_workers``
    selects the remote backend (otherwise cells run serially), and
    ``cache_dir`` adds an on-disk tier under the memory store.

    Parameters
    ----------
    cache_dir:
        On-disk directory for the persistent tier (experiments only).
    remote_workers:
        Remote worker addresses -- the CLI's ``host1:port,host2:port``
        string or a sequence of ``host:port`` entries (each a
        ``python -m repro worker --serve`` process).  Empty is refused.
    worker_token:
        The remote workers' shared auth secret (the CLI's
        ``--token``; default: ``REPRO_WORKER_TOKEN``).
    backend, store:
        Prebuilt instances in place of the derived ones (tests pass
        fakes and shared stores this way); each excludes the inputs
        it replaces.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        remote_workers: Optional[Union[str, Sequence[str]]] = None,
        worker_token: Optional[str] = None,
        backend: Optional[ExecutorBackend] = None,
        store: Optional[ResultStore] = None,
    ):
        if store is not None and cache_dir is not None:
            raise ValueError(
                "pass either a prebuilt store or cache_dir, not both"
            )
        if backend is not None and (
            remote_workers is not None or worker_token is not None
        ):
            raise ValueError(
                "pass either a prebuilt backend or remote_workers/"
                "worker_token, not both"
            )
        if worker_token is not None and remote_workers is None:
            raise ValueError(
                "--token is the remote workers' auth secret -- pass "
                "--workers HOST:PORT[,...] with it"
            )
        if backend is not None:
            self.backend = backend
        elif remote_workers is not None:
            import os

            from .backends.remote import RemoteBackend

            if worker_token is None:
                worker_token = os.environ.get("REPRO_WORKER_TOKEN") or None
            self.backend = RemoteBackend(remote_workers, token=worker_token)
        else:
            self.backend = SerialBackend()
        if store is not None:
            self.store = store
        elif cache_dir:
            from .store import JsonDirStore, TieredStore

            self.store = TieredStore([MemoryStore(), JsonDirStore(cache_dir)])
        else:
            self.store = MemoryStore()
        # corrupt on-disk entries are skipped, counted and surfaced
        # through the event stream rather than crashing warm reruns;
        # a callback already on a caller-supplied (or shared) store
        # keeps firing -- this engine's emitter chains after it, and
        # close() unchains so dead engines never receive ghost events
        self._closed = False
        self._previous_on_corrupt = self.store.on_corrupt

        def _chained(key: str, path: str, error: str) -> None:
            if self._previous_on_corrupt is not None:
                self._previous_on_corrupt(key, path, error)
            if not self._closed:
                self._cache_corrupt(key, path, error)

        self._chained_on_corrupt = _chained
        self.store.on_corrupt = _chained
        self._subscribers: List[EventCallback] = []
        # session-only cell memo of the frozen results themselves:
        # recomputing a cell costs less than creating its disk entry,
        # so the store holds experiments only
        self._cells: Dict[str, CellResult] = {}
        self.cells_computed = 0
        self.experiments_computed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Hit/miss accounting of the result store (experiment lookups)."""
        return self.store.stats

    def store_stats(self) -> List[Dict[str, Any]]:
        """Per-tier stats records of the configured store.

        One record per tier for tiered stores, a single record
        otherwise; each is ``{"store": <description>, hits, misses,
        puts, corrupt, ...}``.  Flows into the ``store_stats`` event
        and the CLI's ``--stats`` output.
        """
        return self.store.tier_stats()

    def close(self) -> None:
        """Release the backend and detach from the shared store."""
        self.backend.close()
        # detach from the store: restore the previous callback when we
        # are still the top of the chain, and in any case stop emitting
        # (an engine wrapped later keeps its own link to the previous)
        self._closed = True
        if self.store.on_corrupt is self._chained_on_corrupt:
            self.store.on_corrupt = self._previous_on_corrupt

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, callback: EventCallback) -> EventCallback:
        """Register an event callback; returns it (for unsubscribe)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: EventCallback) -> None:
        """Remove a previously subscribed event callback."""
        self._subscribers.remove(callback)

    def _emit(self, kind: str, **data: Any) -> None:
        if not self._subscribers:
            return
        from .events import EngineEvent

        event = EngineEvent(kind, data)
        for callback in self._subscribers:
            callback(event)

    def _cache_corrupt(self, key: str, path: str, error: str) -> None:
        self._emit("cache_corrupt", key=key, path=path, error=error)

    # ------------------------------------------------------------------
    # cell execution
    # ------------------------------------------------------------------
    def run_cells(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Evaluate cells; the returned list is aligned with ``specs``.

        Duplicate specs are computed once; cells computed earlier in
        this session come from the engine's memo (never persisted).
        Scheduling cannot affect values -- cells are pure -- so every
        backend agrees with the serial reference bit-for-bit.
        """
        from .cells import group_cells

        keys = [spec.key() for spec in specs]
        results: Dict[str, CellResult] = {}
        cached: List[CellSpec] = []
        pending: List[CellSpec] = []
        pending_keys: List[str] = []
        for spec, key in zip(specs, keys):
            if key in results:
                continue
            cell = self._cells.get(key)
            if cell is not None:
                results[key] = cell
                cached.append(spec)
            else:
                results[key] = None  # type: ignore[assignment]
                pending.append(spec)
                pending_keys.append(key)

        self._emit(
            "batch_started",
            n_cells=len(specs),
            n_unique=len(cached) + len(pending),
            n_cached=len(cached),
            n_pending=len(pending),
            backend=self.backend.describe(),
        )
        for spec in cached:
            self._emit(
                "cell_cached",
                benchmark=spec.benchmark,
                stage=spec.stage,
                scheme=spec.scheme,
                interval=spec.interval,
            )

        if pending:
            start = time.perf_counter()
            # dispatch in (benchmark, stage, scheme, overrides) batches:
            # problem construction, theta resolution and any vectorized
            # scheme solve amortise over each batch, and the remote
            # backend ships whole batches instead of single cells;
            # results are reassembled through the same key-indexed
            # mapping.
            batches = group_cells(pending, keys=pending_keys)
            returned = self.backend.run_batches(batches, self._emit)
            # zip would truncate silently and leave ``None`` results
            if [len(cells) for cells in returned] != [len(b) for b in batches]:
                raise RuntimeError(
                    f"backend {self.backend.describe()} returned "
                    f"{sum(map(len, returned))} cells in {len(returned)} "
                    f"batches for {len(pending)} cells in {len(batches)} "
                    "batches; a backend must return one result per cell"
                )
            for batch, cells in zip(batches, returned):
                for key, cell in zip(batch.keys, cells):
                    self._cells[key] = results[key] = cell
            self.cells_computed += len(pending)
            self._emit(
                "batch_finished",
                n_computed=len(pending),
                seconds=round(time.perf_counter() - start, 6),
            )

        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    # experiment-level memoisation
    # ------------------------------------------------------------------
    def experiment(
        self, key_parts: Sequence[Any], thunk: Callable[[], Any]
    ) -> Any:
        """Memoise a whole figure regeneration.

        ``key_parts`` must identify the computation (experiment id
        plus every argument that changes the output); ``thunk``
        produces an ``ExperimentResult`` or a dict of them.
        """
        key = content_key("experiment", list(key_parts))
        label = str(key_parts[0]) if len(key_parts) else ""
        payload = self.store.get(key)
        if payload is not None:
            self._emit("experiment_cached", experiment=label)
            return _decode_value(payload)
        value = thunk()
        self.experiments_computed += 1
        self.store.put(key, _encode_value(value))
        self._emit("experiment_computed", experiment=label)
        self._emit("store_stats", tiers=self.store_stats())
        return value
