"""Tiered result store: read-through / write-back across tiers.

:class:`TieredStore` composes any ordered sequence of stores -- fast
and volatile first, slow and persistent last.  Lookups walk the tiers
in order and **promote** a lower-tier hit into every tier above it
(read-through), so repeated access costs one dict lookup; writes go
to every tier (write-back), so a payload computed once is available
at every durability level.  Per-tier hit/miss/corrupt accounting is
kept alongside the aggregate view and flows into the engine's
``store_stats`` event and the CLI's ``--stats`` output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .base import ResultStore

__all__ = ["TieredStore"]


class TieredStore(ResultStore):
    """Read-through/write-back composition of an ordered tier list.

    Parameters
    ----------
    tiers:
        Stores ordered fastest-first (e.g. ``[MemoryStore(),
        JsonDirStore(dir)]``).  At least one tier is required.
        Corrupt-entry reports from any tier bubble up through this
        store's ``on_corrupt`` callback (each tier's own callback, if
        already set, keeps firing first).
    """

    name = "tiered"

    def __init__(self, tiers: Sequence[ResultStore]) -> None:
        """Compose ``tiers`` and chain their corrupt-entry callbacks."""
        super().__init__()
        if not tiers:
            raise ValueError("TieredStore needs at least one tier")
        self.tiers: List[ResultStore] = list(tiers)
        for tier in self.tiers:
            self._chain_corrupt(tier)

    def _chain_corrupt(self, tier: ResultStore) -> None:
        previous = tier.on_corrupt

        def forward(key: str, location: str, error: str) -> None:
            if previous is not None:
                previous(key, location, error)
            # aggregate accounting + the engine-facing callback; the
            # tier already counted it in its own stats
            self.stats.corrupt += 1
            if self.on_corrupt is not None:
                self.on_corrupt(key, location, error)

        tier.on_corrupt = forward

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """``tiered[tier + tier + ...]`` naming every tier."""
        inner = " + ".join(tier.describe() for tier in self.tiers)
        return f"tiered[{inner}]"

    def _get(self, key: str) -> Optional[Any]:
        for i, tier in enumerate(self.tiers):
            payload = tier.get(key)
            if payload is not None:
                # read-through promotion: the payload is already
                # sanitised (it entered through put() or JSON disk)
                for upper in self.tiers[:i]:
                    upper._put(key, payload)
                return payload
        return None

    def _put(self, key: str, payload: Any) -> None:
        for tier in self.tiers:
            tier._put(key, payload)
            tier.stats.puts += 1

    def __contains__(self, key: str) -> bool:
        """Whether any tier holds ``key`` (no stats side effects)."""
        return any(key in tier for tier in self.tiers)

    def clear(self) -> None:
        """Drop every entry in every tier."""
        for tier in self.tiers:
            tier.clear()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def tier_stats(self) -> List[Dict[str, Any]]:
        """One stats record per tier, fastest tier first."""
        return [
            {"store": tier.describe(), **tier.stats.as_dict()}
            for tier in self.tiers
        ]
