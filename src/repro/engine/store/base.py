"""The result-store seam: tiered payload storage.

A :class:`ResultStore` answers exactly one question: *given a
content-hash key, keep or produce its JSON payload* -- the engine's
dedup, batching and event plumbing never care where a payload lives.
Three stores ship (:class:`~repro.engine.store.memory.MemoryStore`,
:class:`~repro.engine.store.jsondir.JsonDirStore`,
:class:`~repro.engine.store.tiered.TieredStore`); the engine picks
its stack from ``cache_dir``.

Contract highlights:

* ``get`` returns the payload or ``None`` and counts a hit or a miss
  in :attr:`ResultStore.stats`; a corrupt persistent entry is a
  *miss*, counted in ``stats.corrupt`` and surfaced through the
  ``on_corrupt`` callback -- never an exception out of a warm rerun.
* ``put`` sanitises the payload first (numpy scalars -> Python
  numbers, tuples -> lists) so every store returns the same shapes; a
  payload with no JSON image raises ``TypeError`` before anything is
  stored.
* persistence trouble on ``put`` (full or read-only filesystem)
  degrades to a skipped write counted in ``stats.put_errors`` --
  caching is an accelerator, not a correctness dependency.
* ``clear`` drops every entry; the ``repro cache`` CLI's other
  maintenance (``entries`` / ``prune`` / ``info``) lives on
  :class:`~repro.engine.store.jsondir.JsonDirStore`, the one store it
  operates on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.serialization import sanitize

__all__ = ["CorruptCallback", "ResultStore", "StoreEntry", "StoreStats"]

#: ``(key, location, error)`` callback fired when a persistent entry
#: is unreadable; the engine chains its event emitter through it.
CorruptCallback = Callable[[str, str, str], None]


@dataclass
class StoreStats:
    """Hit/miss accounting for one store (or one tier of one)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    put_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict image for logs, events and ``--stats`` output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "put_errors": self.put_errors,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class StoreEntry:
    """One persistent entry's metadata (the ``repro cache`` CLI view)."""

    key: str
    size_bytes: int
    mtime: float


class ResultStore(ABC):
    """Keyed payload store: the engine's caching seam.

    Subclasses implement :meth:`_get` / :meth:`_put` /
    :meth:`__contains__`; the public :meth:`get` / :meth:`put` wrap
    them with stats accounting and payload sanitisation so every
    backend behaves identically at the seam.
    """

    #: Stable name (``memory``, ``jsondir`` or ``tiered``).
    name: str = "abstract"

    def __init__(self) -> None:
        """Initialise stats and the corrupt-entry callback slot."""
        self.stats = StoreStats()
        self.on_corrupt: Optional[CorruptCallback] = None

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------
    @abstractmethod
    def _get(self, key: str) -> Optional[Any]:
        """Payload for ``key`` or ``None`` (no stats bookkeeping)."""

    @abstractmethod
    def _put(self, key: str, payload: Any) -> None:
        """Store an already-sanitised payload (no stats bookkeeping)."""

    @abstractmethod
    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is currently stored (no stats side effects)."""

    def get(self, key: str) -> Optional[Any]:
        """Payload for ``key`` or ``None``; counts a hit or a miss."""
        payload = self._get(key)
        if payload is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Sanitise and store a JSON-serialisable payload under ``key``.

        Raises ``TypeError`` (before storing anything) when the
        payload has no faithful JSON image.
        """
        self._put(key, sanitize(payload))
        self.stats.puts += 1

    def _report_corrupt(self, key: str, location: str, error: str) -> None:
        """Count one corrupt entry and fire the callback if wired."""
        self.stats.corrupt += 1
        if self.on_corrupt is not None:
            self.on_corrupt(key, location, error)

    def clear(self) -> None:
        """Drop every entry this store holds (volatile and persistent)."""

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable form for events and ``--stats`` output."""
        return self.name

    def tier_stats(self) -> List[Dict[str, Any]]:
        """Per-tier stats records (single-tier stores report one)."""
        return [{"store": self.describe(), **self.stats.as_dict()}]
