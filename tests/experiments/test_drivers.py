"""Shape tests for every experiment driver.

Each test asserts the *reproduction claims*: who wins, in which
direction, by roughly what factor -- the quantities EXPERIMENTS.md
records as paper-vs-measured.
"""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig_1_2,
    fig_3_5,
    fig_3_6,
    fig_4_7,
    fig_5_10,
    fig_6_17,
    fig_6_18,
    headline,
    overhead_study,
    pareto_figs,
)


class TestRegistry:
    def test_every_published_artifact_has_a_driver(self):
        expected = {
            "table_5_1",
            "fig_1_2",
            "fig_3_5",
            "fig_3_6",
            "fig_4_7",
            "fig_5_10",
            "fig_6_11",
            "fig_6_12",
            "fig_6_13",
            "fig_6_14",
            "fig_6_15",
            "fig_6_16",
            "fig_6_17",
            "fig_6_18",
            "sec_6_3",
            "headline",
        }
        assert set(EXPERIMENTS) == expected


class TestTable51:
    """Checks on the session-wide ``table_5_1_result``."""

    def test_regenerates_published_multipliers(self, table_5_1_result):
        assert len(table_5_1_result.rows) == 7
        for vdd, paper, regen in table_5_1_result.rows:
            assert abs(regen - paper) / paper < 0.12

    def test_renders(self, table_5_1_result):
        text = table_5_1_result.render()
        assert "table_5_1" in text and "0.65" in text


class TestFig12:
    def test_u_shape_and_interior_optimum(self):
        result = fig_1_2.run()
        rows = dict((r[0], r[1]) for r in result.rows)
        r_s = rows["optimal speculative ratio r_s"]
        assert 0.5 < r_s < 1.0  # interior optimum
        assert rows["execution time at r_s (norm.)"] < 1.0
        assert result.notes["u_shape_holds"]


class TestFig35:
    def test_radix_heterogeneity(self):
        result = fig_3_5.run()
        assert result.notes["critical thread"] == 0
        spread = float(result.notes["max/min spread at deep speculation"].rstrip("x"))
        assert 3.0 <= spread <= 5.0  # paper: ~4x

    def test_four_thread_series(self):
        result = fig_3_5.run()
        assert len(result.series) == 4


class TestFig36:
    @pytest.fixture(scope="class")
    def result(self):
        return fig_3_6.run()

    def test_both_gains_positive(self, result):
        rows = {r[0]: (r[1], r[2]) for r in result.rows}
        t2, e2 = rows["(c) step 2: + voltage down-scale"]
        assert t2 < 1.0 and e2 < 1.0

    def test_gains_near_paper_magnitude(self, result):
        """Paper: ~7 % each; we accept 4-15 %."""
        rows = {r[0]: (r[1], r[2]) for r in result.rows}
        t2, e2 = rows["(c) step 2: + voltage down-scale"]
        assert 0.04 <= 1 - t2 <= 0.15
        assert 0.04 <= 1 - e2 <= 0.15

    def test_step1_creates_critical_thread_zero(self, result):
        assert result.notes["critical thread after step 1"] == 0

    def test_step2_does_not_stretch_barrier(self, result):
        rows = {r[0]: (r[1], r[2]) for r in result.rows}
        assert rows["(c) step 2: + voltage down-scale"][0] <= (
            rows["(b) step 1: frequency up-scale"][0] + 1e-9
        )


class TestFig47:
    def test_schedule_covers_interval(self):
        result = fig_4_7.run(n_instructions=500_000, n_samp=50_000)
        *levels, final = result.rows
        assert len(levels) == 6  # S = 6 sampling slots
        assert sum(r[2] for r in levels) == 50_000
        assert final[4] == 500_000  # optimised phase ends the interval


class TestFig510:
    @pytest.fixture(scope="class")
    def result(self):
        return fig_5_10.run()

    def test_homogeneous_verdict(self, result):
        assert result.notes["homogeneous"] is True or result.notes[
            "homogeneous"
        ] == True  # noqa: E712 - np.bool_ tolerated

    def test_six_lanes_shown(self, result):
        assert len(result.series) == 6


class TestParetoFigures:
    @pytest.fixture(scope="class")
    def figures(self):
        return {
            figure_id: pareto_figs.run_figure(figure_id, n_thetas=13)
            for figure_id in pareto_figs.PARETO_FIGURES
        }

    @pytest.fixture(scope="class")
    def fig13(self, figures):
        return figures["fig_6_13"]

    @pytest.mark.parametrize("figure_id", sorted(pareto_figs.PARETO_FIGURES))
    def test_three_schemes_swept(self, figures, figure_id):
        assert {s.label for s in figures[figure_id].series} == {
            "SynTS",
            "Per-core TS",
            "No TS",
        }

    @pytest.mark.parametrize(
        "figure_id", ("fig_6_11", "fig_6_12", "fig_6_13", "fig_6_14")
    )
    def test_synts_has_positive_gaps_on_heterogeneous_pairs(
        self, figures, figure_id
    ):
        # fig_6_13 also holds the gaps to roughly the paper's size
        min_energy_gap, min_speed_gap = (
            (5.0, 2.0) if figure_id == "fig_6_13" else (0.0, 0.0)
        )
        notes = figures[figure_id].notes
        energy_gap = notes["energy gap vs Per-core TS"]
        speed_gap = notes["speed gap vs Per-core TS"]
        assert float(energy_gap.rstrip("%")) > min_energy_gap
        assert float(speed_gap.rstrip("%")) > min_speed_gap

    def test_no_ts_cannot_beat_nominal_time(self, fig13):
        no_ts = next(s for s in fig13.series if s.label == "No TS")
        assert min(no_ts.x) >= 1.0 - 1e-9  # r = 1: never faster than nominal

    def test_synts_reaches_below_nominal_time(self, fig13):
        syn = next(s for s in fig13.series if s.label == "SynTS")
        assert min(syn.x) < 0.95

    def test_all_six_figures_run(self):
        results = pareto_figs.run(n_thetas=5)
        assert len(results) == 6


class TestFig617:
    def test_estimates_track_actual(self):
        for name, result in fig_6_17.run().items():
            assert result.notes["max |actual - estimated|"] < 0.02, name
            assert result.notes["critical thread identified"], name

    def test_fmm_has_low_absolute_errors(self):
        result = fig_6_17.run_benchmark("fmm")
        actuals = [row[1] for row in result.rows]
        assert max(actuals) < 0.05  # paper: ~8e-3 scale


class TestFig618:
    @pytest.fixture(scope="class")
    def result(self):
        return fig_6_18.run()

    def test_21_rows(self, result):
        assert len(result.rows) == 21  # 7 benchmarks x 3 stages

    def test_online_overhead_band(self, result):
        overhead = float(
            result.notes["mean online overhead"].split("%")[0]
        )
        assert 0.0 <= overhead <= 25.0  # paper: 10.3 %

    def test_online_synts_beats_no_ts_and_nominal(self, result):
        for stage, name, online, no_ts, nominal in result.rows:
            assert online < no_ts + 0.02, (stage, name)
            assert online < nominal + 0.02, (stage, name)

    def test_gain_vs_per_core(self, result):
        gain = float(
            result.notes["max online gain vs per-core TS"].split("%")[0]
        )
        assert gain > 15.0  # paper: up to 25 %


class TestHeadline:
    @pytest.fixture(scope="class")
    def result(self):
        return headline.run()

    def test_stage_ordering_matches_paper(self, result):
        """Decode and SimpleALU gains are large (~25 %), ComplexALU
        small (~7.5 %) -- the abstract's structure."""
        gains = {row[0]: float(row[1].rstrip("%")) for row in result.rows}
        assert 20.0 <= gains["decode"] <= 30.0
        assert 20.0 <= gains["simple_alu"] <= 30.0
        assert 4.0 <= gains["complex_alu"] <= 11.0

    def test_no_ts_gains_positive_everywhere(self, result):
        for row in result.rows:
            assert float(row[3].rstrip("%")) > 0.0


class TestOverheadStudy:
    def test_published_bands(self):
        result = overhead_study.run()
        area = float(result.notes["area overhead"].split("%")[0])
        power = float(result.notes["power overhead"].split("%")[0])
        assert 2.0 <= area <= 3.5  # paper 2.7 %
        assert 2.5 <= power <= 4.5  # paper 3.41 %

    def test_protected_subset_of_capture_flops(self):
        result = overhead_study.run()
        for row in result.rows[:-1]:
            assert row[2] <= row[1]
