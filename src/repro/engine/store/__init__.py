"""Result stores for the experiment engine.

Three stores ship; the engine picks its stack from ``cache_dir``:

* ``memory``  -- volatile dict store; the stack with no cache dir.
* ``jsondir`` -- the on-disk JSON-directory format (atomic writes,
  corrupt-entry skipping); ``repro cache`` maintains it.
* ``tiered``  -- read-through/write-back composition; memory +
  jsondir is the stack whenever a cache dir is configured.

The two disk-stack stores load on first access, so a memory-only
session compiles neither.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

from .base import CorruptCallback, ResultStore, StoreEntry, StoreStats
from .memory import MemoryStore

__getattr__, __dir__ = lazy_exports(
    __name__, {".jsondir": ("JsonDirStore",), ".tiered": ("TieredStore",)}
)

__all__ = [
    "CorruptCallback",
    "JsonDirStore",
    "MemoryStore",
    "ResultStore",
    "StoreEntry",
    "StoreStats",
    "TieredStore",
]
