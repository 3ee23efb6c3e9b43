"""Batched cell dispatch: grouping, batch evaluation, and
parallel equivalence of the batch path on both backends.

The batch seam may change wall time, never values: ``compute_batch``
must be bit-identical to evaluating each cell alone through its
scheme's ``evaluate`` (never its ``batch_solver``), and the engine's
batched dispatch must stay bit-identical to the serial reference on
both backends, including partially cached batches.
"""

import pytest

from repro.core.schemes import SCHEME_REGISTRY
from repro.engine import (
    CellBatch,
    CellResult,
    CellSpec,
    EventLog,
    ExperimentEngine,
    benchmark_specs,
    compute_batch,
    group_cells,
)
from repro.engine.cells import _interval_problems
from repro.experiments import fig_6_18
from repro.experiments.common import STAGES


def _figure_cell_set():
    specs = []
    for stage in STAGES:
        for group in fig_6_18._stage_specs(stage, seed=7).values():
            specs.extend(group)
    return specs


def _per_cell(specs):
    """Each cell evaluated alone by ``Scheme.evaluate``: the reference
    the batch path must reproduce bit for bit."""
    results = []
    for spec in specs:
        problems = _interval_problems(
            spec.benchmark,
            spec.stage,
            spec.c_penalty,
            spec.leakage,
            spec.n_voltages,
        )
        theta = (
            float(spec.theta)
            if spec.theta is not None
            else problems[0].equal_weight_theta()
        )
        energy, time = SCHEME_REGISTRY.get(spec.scheme).evaluate(
            problems[spec.interval], theta, spec
        )
        results.append(
            CellResult(spec=spec, theta=theta, energy=energy, time=time)
        )
    return tuple(results)


class TestGrouping:
    def test_groups_by_benchmark_stage_scheme_overrides(self):
        specs = (
            list(benchmark_specs("radix", "decode", "synts"))
            + list(benchmark_specs("radix", "decode", "no_ts"))
            + list(benchmark_specs("radix", "simple_alu", "synts"))
            + [CellSpec("radix", "decode", "synts", 0, c_penalty=12.0)]
        )
        batches = group_cells(specs)
        assert len(batches) == 4
        # first-appearance order, original relative order within groups
        assert [b.group_key[:3] for b in batches] == [
            ("radix", "decode", "synts"),
            ("radix", "decode", "no_ts"),
            ("radix", "simple_alu", "synts"),
            ("radix", "decode", "synts"),
        ]
        assert [s.interval for s in batches[0].specs] == [0, 1, 2]

    def test_theta_pinned_cells_share_a_batch(self):
        specs = [
            CellSpec("radix", "decode", "synts", 0, theta=t)
            for t in (0.5, 1.0, 2.0)
        ]
        assert len(group_cells(specs)) == 1

    def test_keys_travel_with_batches(self):
        specs = list(benchmark_specs("radix", "decode", "synts"))
        keys = [s.key() for s in specs]
        (batch,) = group_cells(specs, keys=keys)
        assert batch.keys == tuple(keys)

    def test_mixed_batch_rejected(self):
        a = CellSpec("radix", "decode", "synts")
        b = CellSpec("fmm", "decode", "synts")
        with pytest.raises(ValueError, match="share"):
            CellBatch(specs=(a, b))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CellBatch(specs=())


class TestComputeBatch:
    @pytest.mark.parametrize(
        "scheme", ("synts", "no_ts", "nominal", "per_core_ts")
    )
    def test_offline_batch_equals_per_cell(self, scheme):
        specs = list(benchmark_specs("cholesky", "decode", scheme))
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == _per_cell(specs)

    def test_online_batch_equals_per_cell(self):
        specs = list(
            benchmark_specs("fmm", "decode", "online", seed=3, n_samp=5_000)
        )
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == _per_cell(specs)

    def test_override_batch_equals_per_cell(self):
        specs = [
            CellSpec("radix", "decode", "synts", k, c_penalty=12.0, leakage=0.1)
            for k in range(3)
        ]
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == _per_cell(specs)

    def test_explicit_theta_batch_equals_per_cell(self):
        specs = [
            CellSpec("radix", "decode", "synts", 0, theta=t)
            for t in (0.1, 1.0, 10.0)
        ]
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == _per_cell(specs)

    def test_out_of_range_interval_is_actionable(self):
        spec = CellSpec("radix", "decode", "synts", interval=99)
        with pytest.raises(IndexError, match="intervals"):
            compute_batch(CellBatch(specs=(spec,)))


class TestBatchedDispatchEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        specs = _figure_cell_set()
        with ExperimentEngine() as eng:
            return specs, eng.run_cells(specs)

    def test_remote_matches_serial(self, serial_reference, loopback_workers):
        specs, reference = serial_reference
        with ExperimentEngine(remote_workers=loopback_workers) as eng:
            assert eng.run_cells(specs) == reference

    def test_partially_cached_batches(self, serial_reference):
        """Cells already cached are carved out of their batches; the
        remaining partial batches must still compute identically."""
        specs, reference = serial_reference
        with ExperimentEngine() as eng:
            # warm every third cell, then run the full set
            eng.run_cells(specs[::3])
            assert eng.run_cells(specs) == reference

    def test_cell_events_cover_every_cell(self):
        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        specs = list(benchmark_specs("radix", "decode", "synts")) + list(
            benchmark_specs("fmm", "decode", "nominal")
        )
        eng.run_cells(specs)
        computed = log.of_kind("cell_computed")
        assert len(computed) == len(specs)
        labels = {
            (e.get("benchmark"), e.get("scheme"), e.get("interval"))
            for e in computed
        }
        assert ("radix", "synts", 0) in labels
        assert ("fmm", "nominal", 2) in labels
        # serial dispatch still carries a (batch-amortised) wall time
        assert all(e.get("seconds") >= 0 for e in computed)
