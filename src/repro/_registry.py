"""Name -> entry registries with actionable failure modes.

The scheme registry (:data:`repro.core.schemes.SCHEME_REGISTRY`) and
the workload registry (:data:`repro.workloads.registry.WORKLOAD_REGISTRY`)
are two instances of :class:`Registry`.  An entry is any object with a
``name`` and a plain-data ``digest()``; the registry type, the nouns
of its messages and the remedy they name are data, so each registry
keeps its own error text.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generic, Iterator, Optional, Tuple, Type, TypeVar,
)

__all__ = ["Registry"]

E = TypeVar("E")


class Registry(Generic[E]):
    """Name -> entry, with actionable failure modes.

    Duplicate registration raises (pass ``replace=True`` to override
    deliberately); an unknown lookup names the registered entries and
    ``remedy``, the registration entry point.  ``version`` counts
    registrations and removals, bumped after the change, so a memo of
    :meth:`fingerprint` knows when it is stale; ``on_change`` then runs
    after every bump.
    """

    def __init__(
        self,
        entry_type: Type[E],
        *,
        noun: str,
        remedy: str,
        lookup_noun: Optional[str] = None,
        on_change: Optional[Callable[[], None]] = None,
    ) -> None:
        self._entry_type = entry_type
        self._noun = noun
        self._lookup_noun = lookup_noun or noun
        self._remedy = remedy
        self._on_change = on_change
        self._entries: Dict[str, E] = {}
        self.version = 0

    def _changed(self) -> None:
        # bumped after the change, so a memo built from the new
        # contents is never filed under the old version
        self.version += 1
        if self._on_change is not None:
            self._on_change()

    # -- registration --------------------------------------------------
    def register(self, entry: E, *, replace: bool = False) -> E:
        if not isinstance(entry, self._entry_type):
            raise TypeError(
                f"expected a {self._entry_type.__name__}, "
                f"got {type(entry).__name__}"
            )
        if entry.name in self._entries and not replace:
            raise ValueError(
                f"{self._noun} {entry.name!r} is already registered; pass "
                "replace=True to override it deliberately"
            )
        self._entries[entry.name] = entry
        self._changed()
        return entry

    def unregister(self, name: str) -> None:
        if name not in self._entries:
            raise KeyError(self.unknown_message(name))
        del self._entries[name]
        self._changed()

    # -- lookup --------------------------------------------------------
    def unknown_message(self, name: str) -> str:
        """The error text for a name that is not registered."""
        return (
            f"unknown {self._lookup_noun} {name!r}; registered "
            f"{self._noun}s: {sorted(self._entries)}. {self._remedy}"
        )

    def get(self, name: str) -> E:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(self.unknown_message(name)) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def fingerprint(self) -> Tuple[Tuple[str, Any], ...]:
        """``(name, entry.digest())`` per entry, sorted by name.

        The stable content image of the registered set, for cache
        keys: registering, unregistering, or re-registering a name with
        different parameters all change it.
        """
        return tuple(
            (name, self._entries[name].digest())
            for name in sorted(self._entries)
        )

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[E]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
