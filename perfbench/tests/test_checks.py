"""A corrupted payload -- computed or served from a store -- fails."""

import json

from perfbench.checks import Tally, mismatches, result_digests
from repro.engine import ExperimentEngine
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult


def _result(value):
    return ExperimentResult(
        experiment_id="x", title="t", headers=["a", "b"], rows=[(1, value)]
    )


def test_corrupted_payload_counts_as_a_failure():
    reference = result_digests([("x", _result(2.5))])
    tally = Tally()
    assert not tally.record(0, result_digests([("x", _result(2.5))]), reference)
    assert tally.record(0, result_digests([("x", _result(2.5000001))]), reference)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5


def test_exit_code_missing_output_or_reference_fail():
    digests = result_digests([("x", _result(1.0))])
    tally = Tally()
    assert tally.record(1, digests, digests)
    assert tally.record(0, None, digests)
    assert tally.record(0, digests, None)
    assert tally.failed == 3


def test_dict_results_are_checked_per_panel():
    digests = result_digests([("fig", {"a": _result(1.0), "b": _result(2.0)})])
    assert sorted(digests) == ["fig/a", "fig/b"]
    assert mismatches(digests, {"fig/a": digests["fig/a"]}) == ["fig/b"]


def test_corrupted_store_entry_served_warm_is_a_failure(tmp_path):
    run = EXPERIMENTS["fig_3_6"]
    with ExperimentEngine(cache_dir=str(tmp_path)) as engine:
        reference = result_digests([("fig_3_6", run(engine=engine))])
    # tamper with the stored figure: valid JSON, wrong value
    (entry,) = [
        path
        for path in tmp_path.glob("??/*.json")
        if '"kind":"result"' in path.read_text()
    ]
    payload = json.loads(entry.read_text())
    payload["value"]["title"] += " (tampered)"
    entry.write_text(json.dumps(payload))
    with ExperimentEngine(cache_dir=str(tmp_path)) as engine:
        served = result_digests([("fig_3_6", run(engine=engine))])
    tally = Tally()
    assert tally.record(0, served, reference)
    assert mismatches(served, reference) == ["fig_3_6"]
