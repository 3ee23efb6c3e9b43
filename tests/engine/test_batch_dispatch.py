"""Batched cell dispatch: grouping, batch evaluation, and
parallel equivalence of the batch path on every backend.

The batch seam may change wall time, never values: ``compute_batch``
must be bit-identical to evaluating each cell alone through its
scheme's ``evaluate`` (never its ``batch_solver``), and the engine's
batched dispatch must stay bit-identical to the serial reference on
all backends, including partially cached batches.
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
from repro.engine.backends.process import pool_chunksize
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
        with ExperimentEngine(backend="serial") as eng:
            return specs, eng.run_cells(specs)

    @pytest.mark.parametrize("backend", ("process",))
    def test_backend_matches_serial(self, serial_reference, backend):
        specs, reference = serial_reference
        with ExperimentEngine(jobs=4, backend=backend) as eng:
            assert eng.run_cells(specs) == reference

    def test_partially_cached_batches(self, serial_reference):
        """Cells already cached are carved out of their batches; the
        remaining partial batches must still compute identically."""
        specs, reference = serial_reference
        with ExperimentEngine(backend="serial") as eng:
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


class _RecordingPool:
    """Stands in for the process pool: records the units ``map`` ships
    and evaluates them in-process."""

    def __init__(self):
        self.units = []

    def map(self, fn, items, chunksize=1):
        self.units.extend(items)
        return map(fn, items)

    def shutdown(self, **kwargs):
        pass


def _shipped_units(batches):
    """The units a 2-worker ProcessBackend hands its pool for
    ``batches``, checked against the serial reference."""
    from repro.engine import ProcessBackend, SerialBackend

    backend = ProcessBackend(workers=2)
    backend._pool = pool = _RecordingPool()
    backend._validate_registries = lambda batches: None
    assert backend.run_batches(batches) == SerialBackend().run_batches(
        batches
    )
    return pool.units


class TestPoolDispatchGrain:
    def test_vectorized_batches_ship_whole(self):
        batches = group_cells(
            list(benchmark_specs("radix", "decode", "synts"))
            + list(benchmark_specs("fmm", "decode", "synts"))
        )
        assert _shipped_units(batches) == batches

    def test_no_split_when_batches_already_fill_the_pool(self):
        """Per-interval batches (online: per-cell RNG) ship whole too:
        one pool task per batch, never one per cell."""
        specs = []
        for benchmark in ("radix", "fmm", "cholesky", "barnes"):
            specs += list(
                benchmark_specs(
                    benchmark, "decode", "online", seed=1, n_samp=5_000
                )
            )
        batches = group_cells(specs)
        assert _shipped_units(batches) == batches


class TestPoolChunksize:
    def test_quarter_of_even_split(self):
        assert pool_chunksize(64, 4) == 4
        assert pool_chunksize(1000, 8) == 31

    def test_never_below_one(self):
        assert pool_chunksize(3, 4) == 1
        assert pool_chunksize(0, 4) == 1
        assert pool_chunksize(5, 1) == 1
