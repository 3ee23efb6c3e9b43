"""Lazy package re-exports (PEP 562).

A package that re-exports names from its submodules imports every one
of those submodules when it is itself imported, whether or not the
caller needs them.  :func:`lazy_exports` builds the package's module
``__getattr__`` and ``__dir__`` instead: a re-exported name is imported
from its submodule on first access and then cached in the package
globals, so later lookups are plain attribute reads.  Every
``from package import Name`` keeps working unchanged.  The map is the
package's only list of its lazy public names: ``__all__`` comes from
it too.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Module ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps a module name -- relative to ``package`` when it
    starts with a dot, absolute otherwise -- to the names that module
    provides.  Call it from the package ``__init__`` while the package
    is being imported, then append any names the package defines or
    imports eagerly to ``__all__``::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            ".model": ("PlatformConfig", "ThreadParams"),
        })
    """
    owners = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
