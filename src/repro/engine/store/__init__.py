"""Result stores for the experiment engine.

Three stores ship, selected by name through :func:`make_store` (the
CLI's ``--store`` option goes through it):

* ``memory``  -- volatile dict store; the default with no cache dir.
* ``jsondir`` -- the on-disk JSON-directory format (atomic writes,
  corrupt-entry skipping); needs ``cache_dir``.
* ``tiered``  -- read-through/write-back memory + jsondir; the
  default whenever a cache dir is configured.

The table is fixed: ``cache_dir`` is the only option, and a store
that does not take it rejects it.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    "default_store_name",
    "make_store",
    "store_names",
]


def _make_jsondir(cache_dir: Optional[str] = None) -> ResultStore:
    if not cache_dir:
        raise ValueError(
            "the jsondir store needs a directory: pass --cache-dir DIR"
        )
    return JsonDirStore(cache_dir)


def _make_tiered(cache_dir: Optional[str] = None) -> ResultStore:
    if not cache_dir:
        raise ValueError(
            "the tiered store needs a directory for its persistent "
            "tier: pass --cache-dir DIR (or use --store memory)"
        )
    return TieredStore([MemoryStore(), JsonDirStore(cache_dir)])


#: Store name -> (factory, the options it takes).
_STORES = {
    "memory": (MemoryStore, frozenset()),
    "jsondir": (_make_jsondir, frozenset({"cache_dir"})),
    "tiered": (_make_tiered, frozenset({"cache_dir"})),
}


def store_names() -> Tuple[str, ...]:
    """Names :func:`make_store` accepts."""
    return tuple(_STORES)


def default_store_name(cache_dir: Optional[str] = None) -> str:
    """The store selected when ``--store`` is not given."""
    return "tiered" if cache_dir else "memory"


def make_store(name: str, **options) -> ResultStore:
    """Build a store by name.

    ``options`` that are ``None`` are dropped; any other option the
    chosen store does not take raises ``ValueError``.
    """
    try:
        factory, accepted = _STORES[name]
    except KeyError:
        raise KeyError(
            f"unknown store {name!r}; stores: {sorted(_STORES)}"
        ) from None
    options = {k: v for k, v in options.items() if v is not None}
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ValueError(f"store {name!r} does not accept option(s) {unknown}")
    return factory(**options)
