"""Tests for the online SynTS controller (paper Section 4.3)."""

import numpy as np
import pytest

from repro.core import (
    OnlineKnobs,
    interval_problems,
    run_online_interval,
    solve_synts_poly,
)
from repro.engine import ExperimentEngine, benchmark_specs, totalize
from repro.workloads import build_benchmark


@pytest.fixture(scope="module")
def radix_problem():
    return interval_problems(build_benchmark("radix"), "decode")[0]


class TestKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineKnobs(sampling_fraction=0.0)
        with pytest.raises(ValueError):
            OnlineKnobs(sampling_fraction=1.0)
        with pytest.raises(ValueError):
            OnlineKnobs(n_samp=0)

    def test_budget_default_fraction(self):
        knobs = OnlineKnobs(sampling_fraction=0.1)
        assert knobs.budget_for(100_000, 6) == 10_000

    def test_budget_absolute_override(self):
        knobs = OnlineKnobs(n_samp=50_000)
        assert knobs.budget_for(500_000, 6) == 50_000

    def test_budget_clamped_to_half_interval(self):
        knobs = OnlineKnobs(n_samp=50_000)
        assert knobs.budget_for(20_000, 6) == 10_000


class TestController:
    def test_outcome_structure(self, radix_problem):
        rng = np.random.default_rng(1)
        theta = radix_problem.equal_weight_theta()
        out = run_online_interval(radix_problem, theta, rng)
        m = radix_problem.n_threads
        assert len(out.estimates) == m
        assert len(out.records) == m
        assert len(out.sampling_times) == m
        assert out.texec >= max(out.sampling_times)
        assert out.total_energy > sum(out.sampling_energies)

    def test_sampling_overhead_positive(self, radix_problem):
        rng = np.random.default_rng(2)
        theta = radix_problem.equal_weight_theta()
        out = run_online_interval(radix_problem, theta, rng)
        assert all(t > 0 for t in out.sampling_times)
        assert all(e > 0 for e in out.sampling_energies)

    def test_sampling_phase_instruction_accounting(self, radix_problem):
        rng = np.random.default_rng(3)
        theta = radix_problem.equal_weight_theta()
        knobs = OnlineKnobs(n_samp=50_000)
        out = run_online_interval(radix_problem, theta, rng, knobs)
        for record, thread in zip(out.records, radix_problem.threads):
            assert record.total_instructions() == 50_000

    def test_invalid_v_samp_rejected(self, radix_problem):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="v_samp"):
            run_online_interval(
                radix_problem, 1.0, rng, OnlineKnobs(v_samp=0.5)
            )

    def test_online_close_to_offline(self, radix_problem):
        """The paper's Fig. 6.18 claim: online overhead is modest
        (~10 % EDP on average).  Individual intervals must land within
        a loose band of the offline optimum."""
        rng = np.random.default_rng(5)
        theta = radix_problem.equal_weight_theta()
        offline = solve_synts_poly(radix_problem, theta)
        out = run_online_interval(radix_problem, theta, rng)
        online_edp = out.total_energy * out.texec
        offline_edp = offline.evaluation.edp
        assert online_edp >= offline_edp * 0.95  # can't beat the optimum by much
        assert online_edp <= offline_edp * 1.45

    def test_critical_thread_identified_online(self, radix_problem):
        """Fig. 6.17: the sampling phase must identify the TS-critical
        thread (thread 0 in Radix)."""
        rng = np.random.default_rng(6)
        theta = radix_problem.equal_weight_theta()
        out = run_online_interval(
            radix_problem, theta, rng, OnlineKnobs(n_samp=50_000)
        )
        est_at_min_r = [est(0.64) for est in out.estimates]
        assert int(np.argmax(est_at_min_r)) == 0


def _totals(benchmark, scheme, **knobs):
    """``totalize`` over one engine fan-out of a decode run's cells."""
    specs = benchmark_specs(benchmark, "decode", scheme, **knobs)
    return totalize(ExperimentEngine().run_cells(list(specs)))


class TestBenchmarkTotals:
    """Whole-benchmark runs: interval cells summed by ``totalize``."""

    def test_offline_totals(self):
        specs = benchmark_specs("fmm", "decode", "synts")
        cells = ExperimentEngine().run_cells(list(specs))
        run = totalize(cells)
        assert run.n_intervals == build_benchmark("fmm").n_intervals
        assert run.total_energy == pytest.approx(sum(c.energy for c in cells))
        assert run.edp == pytest.approx(run.total_energy * run.total_time)

    def test_online_totals(self):
        run = _totals("fmm", "online", seed=7, n_samp=10_000)
        assert run.n_intervals == build_benchmark("fmm").n_intervals
        assert run.total_energy > 0 and run.total_time > 0

    def test_online_overhead_band_across_suite(self):
        """Average online/offline EDP ratio lands near the paper's
        10.3 % (we assert a [0 %, 25 %] band on the average)."""
        ratios = []
        for name in ("radix", "cholesky", "barnes"):
            off = _totals(name, "synts")
            on = _totals(name, "online", seed=8, n_samp=50_000)
            ratios.append(on.edp / off.edp)
        avg = float(np.mean(ratios))
        assert 1.0 <= avg < 1.25
