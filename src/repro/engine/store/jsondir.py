"""On-disk JSON-directory result store.

The persistent format is unchanged from the original monolithic
``ResultCache`` -- ``<dir>/<key[:2]>/<key>.json``, canonical JSON --
so cache directories written by earlier versions keep working and
directories this store writes stay readable by them (migration
compatibility is covered by the store test suite).

Writes are **atomic** (``tempfile.mkstemp`` in the entry's directory
plus ``os.replace``): a killed writer can leave stray ``*.tmp`` files
but never a torn ``.json`` entry, so concurrent sessions can share
one directory.  Corrupt or truncated
entries (interrupted pre-atomic writers, bit rot on shared storage)
are treated as misses: counted, reported through ``on_corrupt``,
recomputed and atomically replaced -- never raised out of a warm
rerun.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .base import CorruptCallback, ResultStore, StoreEntry

__all__ = ["JsonDirStore"]


class JsonDirStore(ResultStore):
    """One JSON file per payload under ``<dir>/<key[:2]>/<key>.json``.

    Parameters
    ----------
    cache_dir:
        Directory to persist under (created if missing).  Raises
        ``ValueError`` when the path exists but is not a directory.
    on_corrupt:
        Optional ``(key, path, error)`` callback for unreadable
        entries; the engine wires this to its event stream.
    """

    name = "jsondir"

    def __init__(
        self,
        cache_dir: Union[str, Path],
        on_corrupt: Optional[CorruptCallback] = None,
    ) -> None:
        """Create (or adopt) the backing directory."""
        super().__init__()
        self.cache_dir = Path(cache_dir)
        self.on_corrupt = on_corrupt
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache dir {self.cache_dir} is not a directory"
            ) from exc

    def describe(self) -> str:
        """``jsondir(<path>)`` for events and ``--stats`` output."""
        return f"jsondir({self.cache_dir})"

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def _get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            # corrupt or truncated entry (interrupted writer, bit rot):
            # a miss, not an error -- recomputation will atomically
            # replace the file.  Surface it so degraded shared caches
            # are diagnosable.
            self._report_corrupt(key, str(path), repr(exc))
            return None

    def _put(self, key: str, payload: Any) -> None:
        path = self._path(key)
        # disk trouble (full/read-only filesystem) degrades to a
        # skipped write; anything else is a real bug and must surface
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: concurrent writers race benignly, and a
            # reader never observes a half-written entry
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
        except OSError:
            self.stats.put_errors += 1
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if not isinstance(exc, OSError):
                raise
            self.stats.put_errors += 1

    def __contains__(self, key: str) -> bool:
        """Whether the entry file exists (no stats side effects)."""
        return self._path(key).exists()

    # ------------------------------------------------------------------
    # maintenance (the ``repro cache`` CLI surface)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """Every persisted entry's (key, size, mtime) metadata."""
        for path in sorted(self.cache_dir.glob("??/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield StoreEntry(
                key=path.stem, size_bytes=stat.st_size, mtime=stat.st_mtime
            )

    def remove(self, key: str) -> bool:
        """Delete one entry; returns whether it existed."""
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def prune(self, older_than: float) -> int:
        """Remove entries whose mtime is more than ``older_than`` s old."""
        cutoff = time.time() - float(older_than)
        removed = 0
        for entry in list(self.entries()):
            if entry.mtime < cutoff and self.remove(entry.key):
                removed += 1
        return removed

    def clear(self) -> None:
        """Delete every persisted entry (and stray ``*.tmp`` files)."""
        for path in list(self.cache_dir.glob("??/*.json")):
            try:
                path.unlink()
            except OSError:
                pass
        for tmp in list(self.cache_dir.glob("??/*.tmp")):
            try:
                tmp.unlink()
            except OSError:
                pass

    def info(self) -> Dict[str, Any]:
        """Summary mapping (path included) for ``repro cache info``."""
        entries = list(self.entries())
        return {
            "store": self.describe(),
            "entries": len(entries),
            "bytes": sum(entry.size_bytes for entry in entries),
            "path": str(self.cache_dir),
        }
