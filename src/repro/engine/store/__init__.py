"""Result stores for the experiment engine.

Three stores ship; the engine picks its stack from ``cache_dir``:

* ``memory``  -- volatile dict store; the stack with no cache dir.
* ``jsondir`` -- the on-disk JSON-directory format (atomic writes,
  corrupt-entry skipping); ``repro cache`` maintains it.
* ``tiered``  -- read-through/write-back composition; memory +
  jsondir is the stack whenever a cache dir is configured.
"""

from __future__ import annotations

from .base import CorruptCallback, ResultStore, StoreEntry, StoreStats
from .jsondir import JsonDirStore
from .memory import MemoryStore
from .tiered import TieredStore

__all__ = [
    "CorruptCallback",
    "JsonDirStore",
    "MemoryStore",
    "ResultStore",
    "StoreEntry",
    "StoreStats",
    "TieredStore",
]
