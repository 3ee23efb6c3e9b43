"""Experiment keys splice a memoised registry fingerprint.

Every experiment key carries the scheme and workload fingerprints.
They enter as one pre-encoded :class:`~repro.serialization.JsonFragment`
built once per pair of registry versions; the key must equal the one
built from every registered entry's own digest, and every
registration must move it.
A declaration rejects the calls a signature would reject.
"""

import pytest

from repro.core.schemes import SCHEME_REGISTRY, Scheme, register_scheme
from repro.engine.session import engine_session
from repro.experiments import EXPERIMENTS, PARETO_FIGURE
from repro.experiments.ablations import ABLATIONS
from repro.experiments.common import Experiment
from repro.serialization import JsonFragment, content_key
from repro.workloads import (
    WORKLOAD_REGISTRY,
    register_synthetic,
    unregister_workload,
)


class KeyPartsEngine:
    """Stub engine: ``experiment()`` returns the key parts it was
    given and never runs the computation."""

    def experiment(self, key_parts, thunk):
        return key_parts

    def close(self):
        pass


def _by_name(registry):
    return sorted(registry, key=lambda entry: entry.name)


def _plain_key(key_parts) -> str:
    """The key from each registered entry's own digest, with no
    fragment and no registry fingerprint."""
    exp_id, qualname, arguments, fragment = key_parts
    assert type(fragment) is JsonFragment
    registries = (
        [list(scheme.digest()) for scheme in _by_name(SCHEME_REGISTRY)],
        [[entry.name, entry.digest()] for entry in _by_name(WORKLOAD_REGISTRY)],
    )
    return content_key("experiment", [exp_id, qualname, arguments, registries])


@pytest.mark.parametrize(
    "run",
    [*EXPERIMENTS.values(), *ABLATIONS.values()],
    ids=[*EXPERIMENTS, *(f"ablation_{name}" for name in ABLATIONS)],
)
def test_spliced_key_equals_the_plain_key(run):
    with engine_session(engine=KeyPartsEngine()):
        key_parts = run()
    assert content_key("experiment", list(key_parts)) == _plain_key(key_parts)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # figure_id has no default
        (("fig_6_11",), {"nope": 1}),
        (("fig_6_11", 21, 2.0, None, "extra"), {}),
        (("fig_6_11",), {"figure_id": "fig_6_12"}),
        (("fig_6_11", 21, 2.0, KeyPartsEngine()), {}),  # and engine=
    ],
    ids=["missing", "unknown", "too-many", "twice", "engine-twice"],
)
def test_binding_rejects_what_a_signature_rejects(args, kwargs):
    with pytest.raises(TypeError):
        PARETO_FIGURE(*args, engine=KeyPartsEngine(), **kwargs)


@Experiment("key_probe", "key_probe", "_probe").define
def _probe():
    raise AssertionError("keying never runs the driver")


def _key() -> str:
    key_parts = _probe(engine=KeyPartsEngine())
    key = content_key("experiment", list(key_parts))
    assert key == _plain_key(key_parts)
    return key


def test_each_registration_moves_the_key():
    original = _key()
    seen = {original}
    try:
        register_synthetic("key_probe_synth", heterogeneity=2.0)
        seen.add(_key())
        register_synthetic("key_probe_synth", heterogeneity=8.0, replace=True)
        seen.add(_key())
        register_scheme(
            Scheme(name="key_probe_scheme", solver="repro.core.poly:solve_synts_poly")
        )
        seen.add(_key())
        register_scheme(
            Scheme(
                name="key_probe_scheme",
                solver="repro.core.baselines:solve_no_ts",
            ),
            replace=True,
        )
        seen.add(_key())
        assert len(seen) == 5
    finally:
        if "key_probe_scheme" in SCHEME_REGISTRY:
            SCHEME_REGISTRY.unregister("key_probe_scheme")
        if "key_probe_synth" in WORKLOAD_REGISTRY:
            unregister_workload("key_probe_synth")
    assert _key() == original


def test_fragment_is_built_once_per_registry_version(monkeypatch):
    import repro.experiments.common as common

    _key()
    built = []
    real = common.canonical_json
    monkeypatch.setattr(
        common, "canonical_json", lambda obj: built.append(obj) or real(obj)
    )
    first = _key()
    assert _key() == first and built == []
    register_synthetic("key_probe_once")
    try:
        _key()
        _key()
        assert len(built) == 1
    finally:
        unregister_workload("key_probe_once")
    assert _key() == first and len(built) == 2
