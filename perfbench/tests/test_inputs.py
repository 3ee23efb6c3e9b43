"""Seed -> workload inputs is deterministic; the default seed is the paper's."""

import json

import pytest

from perfbench import inputs
from repro.workloads import WORKLOAD_REGISTRY, unregister_workload


def test_default_seed_reproduces_the_paper_inputs():
    assert inputs.driver_kwargs(inputs.DEFAULT_SEED) == {}
    assert inputs.synthetic_params(inputs.DEFAULT_SEED) is None
    assert inputs.bootstrap_env(inputs.DEFAULT_SEED) == {}


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_same_seed_same_inputs(seed):
    assert inputs.driver_kwargs(seed) == inputs.driver_kwargs(seed)
    assert inputs.synthetic_params(seed) == inputs.synthetic_params(seed)
    assert inputs.bootstrap_env(seed) == inputs.bootstrap_env(seed)


def test_seeds_change_the_inputs():
    params = {json.dumps(inputs.synthetic_params(s)) for s in range(1, 30)}
    seeds = {inputs.driver_kwargs(s)["fig_6_18"]["seed"] for s in range(1, 30)}
    assert len(params) > 10 and len(seeds) > 10


def test_registered_workload_is_the_same_for_the_same_seed(monkeypatch):
    digests = []
    for _ in range(2):
        for name, value in inputs.bootstrap_env(42).items():
            monkeypatch.setenv(name, value)
        try:
            inputs.register()
            entry = WORKLOAD_REGISTRY.get(inputs.SYNTH_NAME)
            assert entry.reported
            digests.append(entry.digest_json)
        finally:
            unregister_workload(inputs.SYNTH_NAME)
    assert digests[0] == digests[1]
    profile = json.loads(digests[0])["profile"]
    params = inputs.synthetic_params(42)
    assert len(profile["thread_multipliers"]) == params["n_threads"]
    assert profile["n_intervals"] == params["n_intervals"]
