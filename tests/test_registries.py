"""Registration discipline, shared by the scheme and workload registries.

Both default registries are instances of one ``Registry`` type; every
check here runs on each of them and restores what it registered.
"""

from dataclasses import replace

import pytest

from repro.core.schemes import SCHEME_REGISTRY, Scheme
from repro.workloads import SPLASH2_PROFILES, WORKLOAD_REGISTRY, WorkloadEntry

PROBE = "registry_probe"


def _scheme(description):
    return Scheme(
        name=PROBE,
        solver="repro.core.baselines:solve_no_ts",
        description=description,
    )


def _workload(description):
    return WorkloadEntry(
        profile=replace(SPLASH2_PROFILES["radix"], name=PROBE),
        description=description,
    )


#: (registry, entry factory, a value of the wrong type, exact texts)
CASES = {
    "schemes": (
        SCHEME_REGISTRY,
        _scheme,
        "synts",
        "unknown scheme 'nope'; registered schemes: {names}. Register new "
        "schemes with repro.core.schemes.register_scheme(...)",
        "scheme 'registry_probe' is already registered; pass replace=True "
        "to override it deliberately",
    ),
    "workloads": (
        WORKLOAD_REGISTRY,
        _workload,
        SPLASH2_PROFILES["radix"],
        "unknown benchmark 'nope'; registered workloads: {names}. Register "
        "new workloads with repro.workloads.register_workload(...) or "
        "register_synthetic(...)",
        "workload 'registry_probe' is already registered; pass "
        "replace=True to override it deliberately",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry = CASES[request.param][0]
    assert PROBE not in registry
    yield CASES[request.param]
    if PROBE in registry:
        registry.unregister(PROBE)


def test_duplicate_refused_and_replace_overrides(case):
    registry, make, _, _, duplicate = case
    first = registry.register(make("first"))
    with pytest.raises(ValueError) as err:
        registry.register(make("again"))
    assert err.value.args[0] == duplicate
    assert registry.get(PROBE) is first
    second = make("second")
    assert registry.register(second, replace=True) is second
    assert registry.get(PROBE) is second


def test_unknown_name_gives_the_exact_text(case):
    registry, _, _, unknown, _ = case
    expected = unknown.format(names=sorted(registry.names()))
    with pytest.raises(KeyError) as lookup:
        registry.get("nope")
    with pytest.raises(KeyError) as removal:
        registry.unregister("nope")
    assert lookup.value.args[0] == removal.value.args[0] == expected


def test_non_entry_rejected(case):
    registry, make, wrong, _, _ = case
    with pytest.raises(TypeError) as err:
        registry.register(wrong)
    assert err.value.args[0] == (
        f"expected a {type(make('x')).__name__}, got {type(wrong).__name__}"
    )


def test_version_rises_once_per_change(case):
    registry, make, _, _, _ = case
    start = registry.version
    registry.register(make("first"))
    assert registry.version == start + 1
    with pytest.raises(ValueError):
        registry.register(make("again"))
    assert registry.version == start + 1
    registry.register(make("second"), replace=True)
    assert registry.version == start + 2
    registry.unregister(PROBE)
    assert registry.version == start + 3


def test_workload_change_clears_the_problem_memo():
    import repro.engine.cells as cells

    memo = cells._interval_problems
    try:
        for change in (
            lambda: WORKLOAD_REGISTRY.register(_workload("probe")),
            lambda: WORKLOAD_REGISTRY.unregister(PROBE),
        ):
            cells.cached_interval_problems("radix", "decode")
            assert memo.cache_info().currsize > 0
            change()
            assert memo.cache_info().currsize == 0
    finally:
        if PROBE in WORKLOAD_REGISTRY:
            WORKLOAD_REGISTRY.unregister(PROBE)
