"""Canonical JSON serialisation and content-hash keys.

Every cache entry -- experiment cells and whole ``ExperimentResult``
payloads -- is addressed by the SHA-256 of its *canonical JSON* spec:
sorted keys, no whitespace variance, numpy scalars coerced to plain
Python numbers.  Two sessions (or two worker processes) that describe
the same computation therefore derive the same key, which is what
makes the on-disk cache shareable across figures and runs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any

__all__ = ["sanitize", "canonical_json", "content_key", "SCHEMA_VERSION"]

#: Bump when cached payload layouts change incompatibly; the version
#: participates in every key, so stale entries are simply never hit.
SCHEMA_VERSION = 1


def _code_version() -> str:
    """Package version, mixed into every key.

    Invalidates persistent caches across *released* versions.  It is
    not a per-commit hash: uncommitted source edits between version
    bumps can still hit old ``--cache-dir`` entries, so clear the
    cache dir (or bump the version) after changing solver/model code.
    """
    from repro import __version__

    return __version__


#: Types :func:`sanitize` returns unchanged (exact types only).
_PLAIN_TYPES = frozenset({float, int, str, bool, type(None)})


def sanitize(obj: Any) -> Any:
    """Recursively coerce a payload to plain JSON-serialisable types.

    Tuples become lists, numpy scalars/arrays become Python numbers
    and lists, dict keys become strings.  Raises ``TypeError`` for
    anything that has no faithful JSON image (rich objects must be
    converted by their owners before caching).
    """
    # fast path for the exact builtin types that make up nearly every
    # payload; subclasses (IntEnum, np.float64, ...) take the general
    # branch below, which coerces them
    kind = type(obj)
    if kind in _PLAIN_TYPES:
        return obj
    if kind is list or kind is tuple:
        return [sanitize(v) for v in obj]
    if kind is dict:
        return {str(k): sanitize(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    # note: np.float64 subclasses float and np.int_ may subclass int,
    # so coerce through the builtin constructors unconditionally
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    # a numpy value can only exist once numpy is imported; never import
    # it here, so cache-only sessions stay numpy-free
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    raise TypeError(
        f"cannot sanitise {type(obj).__name__!r} for the result cache"
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of a sanitised payload."""
    return json.dumps(
        sanitize(obj), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def content_key(*parts: Any) -> str:
    """SHA-256 content hash of the canonical JSON of ``parts``.

    Keys are salted with the cache schema version and the package
    version, so incompatible payload layouts and results from older
    code never collide with current ones.
    """
    text = canonical_json([SCHEMA_VERSION, _code_version(), *parts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
