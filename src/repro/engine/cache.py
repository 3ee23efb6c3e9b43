"""The memory(+disk) store stack under its historical name.

:class:`ResultCache` is a :class:`~repro.engine.store.tiered.TieredStore`
of a :class:`~repro.engine.store.memory.MemoryStore`, plus a
:class:`~repro.engine.store.jsondir.JsonDirStore` when a cache
directory is given -- the stack ``ExperimentEngine(cache_dir=...)``
builds.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from .store import JsonDirStore, MemoryStore, ResultStore, TieredStore

__all__ = ["ResultCache"]


class ResultCache(TieredStore):
    """Memory tier, plus a jsondir tier under ``cache_dir`` when set."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        """Build the memory(+disk) tier stack."""
        tiers: List[ResultStore] = [MemoryStore()]
        if cache_dir is not None:
            tiers.append(JsonDirStore(cache_dir))
        super().__init__(tiers)

    def clear(self) -> None:
        """Drop the memory tier; the disk tier is left intact."""
        self.tiers[0].clear()
