"""Engine executor: dedup, cache accounting, experiment memoisation."""

import numpy as np
import pytest

from repro.engine import (
    BenchmarkTotals,
    CellBatch,
    CellResult,
    CellSpec,
    EventLog,
    ExperimentEngine,
    benchmark_specs,
    cached_interval_problems,
    cell_seed,
    compute_batch,
    engine_session,
    get_engine,
    set_engine,
    totalize,
)
from repro.experiments.common import Experiment, ExperimentResult

from .conftest import cells_experiment, store_entries


def _cell(spec):
    return compute_batch(CellBatch((spec,)))[0]


def _solved_totals(benchmark):
    """SynTS-Poly energy and time summed over the decode intervals."""
    from repro.core.poly import solve_synts_poly

    problems = cached_interval_problems(benchmark, "decode")
    theta = problems[0].equal_weight_theta()
    energy = time = 0.0
    for problem in problems:
        evaluation = solve_synts_poly(problem, theta).evaluation
        energy += evaluation.total_energy
        time += evaluation.texec
    return energy, time


@Experiment("engine_probe", "engine_probe", "_engine_probe").define
def _engine_probe():
    """Submits cells the way a driver does: through the session."""
    get_engine().run_cells(list(benchmark_specs("radix", "decode", "synts")))
    return ExperimentResult(experiment_id="engine_probe", title="probe")


@Experiment("raising_probe", "raising_probe", "_raising_probe").define
def _raising_probe():
    raise RuntimeError("probe failed")


def _specs():
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("radix", "decode", "online", seed=3, n_samp=5_000)
    )


class TestCells:
    def test_compute_cell_is_deterministic(self):
        spec = CellSpec("radix", "decode", "online", seed=11, n_samp=5_000)
        assert _cell(spec) == _cell(spec)

    def test_cell_seed_separates_coordinates(self):
        base = CellSpec("radix", "decode", "online", seed=1)
        other_interval = CellSpec(
            "radix", "decode", "online", interval=1, seed=1
        )
        other_bench = CellSpec("fmm", "decode", "online", seed=1)
        seeds = {cell_seed(base), cell_seed(other_interval), cell_seed(other_bench)}
        assert len(seeds) == 3

    def test_offline_cell_matches_runner(self):
        """A cell is exactly one interval of a scalar run (SynTS-Poly
        per interval, summed in order); totalize sums them the same."""
        energy, time = _solved_totals("radix")
        totals = totalize(
            [_cell(s) for s in benchmark_specs("radix", "decode", "synts")]
        )
        assert totals.total_energy == energy
        assert totals.total_time == time
        assert totals.edp == energy * time

    def test_engine_totals_equal_the_per_interval_solves(self):
        """An engine fan-out of a benchmark's cells totals exactly."""
        energy, time = _solved_totals("cholesky")
        specs = benchmark_specs("cholesky", "decode", "synts")
        totals = totalize(ExperimentEngine().run_cells(list(specs)))
        assert totals.total_energy == energy
        assert totals.total_time == time
        assert totals.n_intervals == len(specs)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            CellSpec("radix", "decode", "bogus")

    def test_both_sampling_budgets_rejected(self):
        """n_samp overrides sampling_fraction, so setting both would
        key (and seed) a cell by a knob the controller ignores."""
        with pytest.raises(ValueError, match="sampling_fraction"):
            CellSpec(
                "radix", "decode", "online", n_samp=5_000,
                sampling_fraction=0.2,
            )

    @pytest.mark.parametrize("n_voltages", [-1, 0, 8])
    def test_n_voltages_outside_the_platform_rejected(self, n_voltages):
        """Slicing the platform's 7 levels would run -1 as 6 and 8 as
        7, each under its own key."""
        with pytest.raises(ValueError, match="n_voltages"):
            ExperimentEngine().run_cells(
                [CellSpec("cholesky", "decode", "synts", n_voltages=n_voltages)]
            )

    @pytest.mark.parametrize(
        "knob, value",
        [("seed", 3), ("n_samp", 5_000), ("sampling_fraction", 0.2)],
    )
    def test_online_knob_on_offline_scheme_rejected(self, knob, value):
        """An offline scheme draws no samples: the knob would only
        give the same computation a second key."""
        with pytest.raises(ValueError, match=knob):
            CellSpec("radix", "decode", "synts", **{knob: value})

    def test_totalize_rejects_mixed_groups(self):
        cells = [
            _cell(CellSpec("radix", "decode", "synts")),
            _cell(CellSpec("radix", "decode", "nominal")),
        ]
        with pytest.raises(ValueError):
            totalize(cells)

    def test_result_payload_round_trip(self):
        cell = _cell(CellSpec("fmm", "simple_alu", "no_ts"))
        assert CellResult.from_payload(cell.to_payload()) == cell

    def test_result_payload_accepts_ints_and_infinity(self):
        payload = {
            "spec": CellSpec("fmm", "decode", "nominal").to_payload(),
            "theta": 1,
            "energy": 2.5,
            "time": float("inf"),
        }
        cell = CellResult.from_payload(payload)
        assert (cell.theta, cell.energy, cell.time) == (1, 2.5, float("inf"))

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("energy", "x", TypeError),
            ("time", None, TypeError),
            ("theta", True, TypeError),
            ("energy", [1.0], TypeError),
            ("time", float("nan"), ValueError),
        ],
    )
    def test_result_payload_rejects_mistyped_values(self, field, value, error):
        payload = _cell(CellSpec("fmm", "decode", "nominal")).to_payload()
        payload[field] = value
        with pytest.raises(error, match=f"cell {field}"):
            CellResult.from_payload(payload)


class TestRunCells:
    def test_cache_hit_miss_accounting(self):
        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        specs = _specs()
        first = eng.run_cells(specs)
        assert eng.cells_computed == len(specs)

        second = eng.run_cells(specs)
        assert second == first
        assert eng.cells_computed == len(specs)  # nothing recomputed
        started = log.of_kind("batch_started")
        assert [e.get("n_cached") for e in started] == [0, len(specs)]
        assert len(log.of_kind("cell_cached")) == len(specs)
        # the session memo serves cells; the result store never sees one
        assert eng.stats.lookups == 0 and eng.stats.puts == 0

    def test_memo_hit_is_the_computed_result(self):
        """The session memo keeps the frozen results themselves: a hit
        is the very object the backend returned, not a rebuilt copy."""
        eng = ExperimentEngine()
        specs = _specs()
        first = eng.run_cells(specs)
        second = eng.run_cells(specs)
        assert all(a is b for a, b in zip(first, second))

    def test_duplicates_computed_once(self):
        eng = ExperimentEngine()
        spec = CellSpec("radix", "decode", "synts")
        results = eng.run_cells([spec, spec, spec])
        assert eng.cells_computed == 1
        assert results[0] == results[1] == results[2]

    def test_disk_cache_shared_across_engines(self, tmp_path):
        """A shared cache_dir serves the whole experiment: the warm
        engine computes no cell."""
        specs = _specs()
        cold = ExperimentEngine(cache_dir=tmp_path)
        a = cells_experiment(cold, specs)
        assert cold.cells_computed == len(specs)

        warm = ExperimentEngine(cache_dir=tmp_path)
        b = cells_experiment(warm, specs)
        assert warm.cells_computed == 0
        assert warm.store.tiers[1].stats.hits == 1  # jsondir
        assert a == b

    def test_run_cells_writes_no_file(self, tmp_path):
        """Cells stay in the session: a cache_dir gains nothing from
        run_cells alone."""
        with ExperimentEngine(cache_dir=tmp_path) as eng:
            eng.run_cells(_specs())
            assert eng.cells_computed == len(_specs())
        assert list(tmp_path.rglob("*")) == []

    def test_cold_experiment_leaves_one_entry(self, tmp_path):
        """A cold figure that computes many cells persists exactly one
        entry, its experiment result."""
        from repro.experiments import EXPERIMENTS

        with ExperimentEngine(cache_dir=tmp_path) as eng:
            EXPERIMENTS["headline"](engine=eng)
            assert eng.cells_computed > 0
            assert eng.experiments_computed == 1
        (entry,) = store_entries(tmp_path)
        assert '"kind":"result"' in entry.read_text()

    def test_totals_shape(self):
        eng = ExperimentEngine()
        totals = totalize(
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
        )
        assert isinstance(totals, BenchmarkTotals)
        assert totals.n_intervals == 3
        assert totals.edp == pytest.approx(
            totals.total_energy * totals.total_time
        )


class TestExperimentMemo:
    def test_thunk_runs_once(self):
        eng = ExperimentEngine()
        calls = []

        def thunk():
            calls.append(1)
            return ExperimentResult(
                experiment_id="t", title="t", headers=["a"], rows=[(1,)]
            )

        r1 = eng.experiment(("t", 1), thunk)
        r2 = eng.experiment(("t", 1), thunk)
        assert len(calls) == 1
        assert r2.experiment_id == r1.experiment_id
        assert [tuple(r) for r in r2.rows] == [tuple(r) for r in r1.rows]

    def test_disk_round_trip_preserves_render(self, tmp_path):
        from repro.experiments import fig_4_7

        with engine_session(ExperimentEngine(cache_dir=tmp_path)):
            cold = fig_4_7.run()
        with engine_session(ExperimentEngine(cache_dir=tmp_path)) as warm_engine:
            warm = fig_4_7.run()
            assert warm_engine.experiments_computed == 0
        assert warm.render() == cold.render()

    def test_mapping_results_supported(self, tmp_path):
        eng = ExperimentEngine(cache_dir=tmp_path)
        value = {
            "a": ExperimentResult(experiment_id="a", title="a"),
            "b": ExperimentResult(experiment_id="b", title="b"),
        }
        eng.experiment(("map",), lambda: value)
        fresh = ExperimentEngine(cache_dir=tmp_path)
        out = fresh.experiment(("map",), lambda: pytest.fail("must hit cache"))
        assert list(out) == ["a", "b"]
        assert out["a"].experiment_id == "a"


class TestSession:
    def test_engine_session_scopes_default(self):
        outer = get_engine()
        with engine_session() as scoped:
            assert get_engine() is scoped
        assert get_engine() is outer

    def test_set_engine_reset(self):
        current = get_engine()
        try:
            assert set_engine(None) is current
            fresh = get_engine()
            assert fresh is not current
        finally:
            set_engine(current)


class TestCachedExperimentDecorator:
    def test_defaults_bound_into_key(self):
        """run(x) and run(value=x) share one cache entry."""
        from repro.experiments import pareto_figs

        eng = ExperimentEngine()
        pareto_figs.run_figure("fig_6_11", n_thetas=3, engine=eng)
        pareto_figs.run_figure("fig_6_11", 3, engine=eng)
        assert eng.experiments_computed == 1

    def test_explicit_engine_reaches_cells(self):
        """An ablation's engine= must run its cells, not the global."""
        from repro.experiments.ablations import replay_penalty

        eng = ExperimentEngine()
        replay_penalty(engine=eng)
        assert eng.cells_computed > 0

    def test_engine_keyword_is_the_session_engine_for_the_body(self):
        eng = ExperimentEngine()
        with engine_session() as ambient:
            _engine_probe(engine=eng)
            assert get_engine() is ambient
            assert ambient.cells_computed == 0
        assert eng.cells_computed == len(benchmark_specs("radix", "decode", "synts"))

    def test_session_engine_restored_after_a_store_hit(self):
        eng = ExperimentEngine()
        with engine_session() as ambient:
            _engine_probe(engine=eng)
            _engine_probe(engine=eng)
            assert eng.experiments_computed == 1
            assert get_engine() is ambient

    def test_session_engine_restored_after_the_body_raises(self):
        with engine_session() as ambient:
            with pytest.raises(RuntimeError, match="probe failed"):
                _raising_probe(engine=ExperimentEngine())
            assert get_engine() is ambient

    def test_main_restores_ambient_engine(self, capsys):
        from repro.__main__ import main

        with engine_session() as ambient:
            assert main(["run", "fig_4_7"]) == 0
            capsys.readouterr()
            assert get_engine() is ambient


class TestSharedFigures:
    def test_headline_reuses_fig_6_18_cells(self):
        """The offline cells of fig_6_18 satisfy headline entirely."""
        from repro.experiments import fig_6_18, headline

        with engine_session() as eng:
            fig_6_18.run()
            computed_before = eng.cells_computed
            headline.run()
            assert eng.cells_computed == computed_before

    def test_sampling_budget_reuses_fig_6_18_cells(self):
        """Its offline baseline is fig_6_18's radix/decode synts cells."""
        from repro.experiments import fig_6_18
        from repro.experiments.ablations import sampling_budget

        with engine_session() as eng:
            fig_6_18.run()
            computed_before = eng.cells_computed
            sampling_budget()
            assert eng.cells_computed == computed_before

    def test_sampling_budget_runs_its_cells_on_the_given_engine(self):
        from repro.experiments.ablations import sampling_budget

        eng = ExperimentEngine()
        with engine_session() as ambient:
            sampling_budget(engine=eng)
            assert ambient.cells_computed == 0
        assert eng.cells_computed == len(benchmark_specs("radix", "decode", "synts"))
