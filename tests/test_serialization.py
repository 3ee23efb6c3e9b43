"""``sanitize``'s exact-type fast path changes no payload."""

import json
from enum import IntEnum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization import canonical_json, sanitize


def _reference_sanitize(obj: Any) -> Any:
    """``sanitize`` as it was before the fast path: isinstance checks
    only.  The current function must produce the same JSON image."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_reference_sanitize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _reference_sanitize(v) for k, v in obj.items()}
    raise TypeError(
        f"cannot sanitise {type(obj).__name__!r} for the result cache"
    )


def _reference_json(obj: Any) -> str:
    return json.dumps(
        _reference_sanitize(obj),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


class Level(IntEnum):
    LOW = 1
    HIGH = 2


_special_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    _special_floats,
    st.text(max_size=6),
    st.sampled_from(list(Level)),
    st.floats().map(np.float64),
    _special_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), max_size=5).map(np.array),
    st.lists(st.integers(-1000, 1000), max_size=6).map(
        lambda v: np.array(v, dtype=np.int64).reshape(-1, 1)
    ),
)
_keys = st.one_of(st.text(max_size=4), st.integers(), st.sampled_from(list(Level)))
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_sanitize_matches_reference(payload):
    assert canonical_json(payload) == _reference_json(payload)


def test_subclasses_are_coerced():
    out = sanitize([Level.HIGH, np.float64(0.5), np.int64(3), np.bool_(False)])
    assert out == [2, 0.5, 3, False]
    assert [type(v) for v in out] == [int, float, int, bool]


def test_rich_objects_still_rejected():
    with pytest.raises(TypeError):
        sanitize({"ok": [1, 2.0], "bad": (object(),)})
