"""Tests for theta sweeps and Pareto-front tooling (Figs. 6.11-6.16)."""

import numpy as np
import pytest

from repro.core import TradeoffPoint, pareto_front, theta_grid
from repro.engine import ExperimentEngine, cached_interval_problems
from repro.experiments.pareto_figs import _sweep_cells


def _sweeps(benchmark, thetas=None):
    """Normalised sweeps of SynTS, Per-core TS and No TS, by label."""
    if thetas is None:
        thetas = theta_grid(cached_interval_problems(benchmark, "simple_alu"))
    return _sweep_cells(benchmark, "simple_alu", thetas, ExperimentEngine())


class TestTradeoffPoint:
    def test_dominance(self):
        a = TradeoffPoint(theta=1, time=0.8, energy=0.7)
        b = TradeoffPoint(theta=2, time=0.9, energy=0.8)
        c = TradeoffPoint(theta=3, time=0.7, energy=0.9)
        assert a.dominates(b)
        assert not a.dominates(c)
        assert not b.dominates(a)

    def test_no_self_domination(self):
        a = TradeoffPoint(theta=1, time=0.8, energy=0.7)
        assert not a.dominates(a)


class TestSweep:
    @pytest.fixture(scope="class")
    def fmm_sweep(self):
        return _sweeps("fmm")["SynTS"]

    def test_one_point_per_theta(self, fmm_sweep):
        assert len(fmm_sweep) == 21

    def test_normalised_to_nominal(self, fmm_sweep):
        """Normalisation sanity: some point must be at or below the
        Nominal baseline on each axis."""
        assert min(p.time for p in fmm_sweep) <= 1.0 + 1e-9
        assert min(p.energy for p in fmm_sweep) <= 1.0 + 1e-9

    def test_energy_time_tradeoff_direction(self, fmm_sweep):
        """Larger theta favours time: the highest-theta point must be
        at least as fast as the lowest-theta point, and no cheaper."""
        lo = fmm_sweep[0]
        hi = fmm_sweep[-1]
        assert hi.time <= lo.time + 1e-9
        assert hi.energy >= lo.energy - 1e-9

    def test_theta_grid_centres_on_equal_weight(self):
        problems = cached_interval_problems("fmm", "simple_alu")
        grid = theta_grid(problems, n_points=11, decades=1.0)
        centre = np.mean([p.equal_weight_theta() for p in problems])
        assert grid[5] == pytest.approx(centre)
        assert grid[0] == pytest.approx(centre / 10)

    def test_per_core_never_strictly_dominates_synts(self):
        """Figs. 6.11-6.16 shape.  Because SynTS is optimal for
        ``en + theta * t``, no feasible assignment -- in particular no
        per-core point -- can be strictly better on *both* axes than
        any SynTS sweep point (else it would beat the optimum at that
        point's theta)."""
        sweeps = _sweeps("cholesky")
        syn, pc = sweeps["SynTS"], sweeps["Per-core TS"]
        for q in pc:
            for p in syn:
                assert not q.dominates(p, tol=1e-9), (q, p)

    def test_synts_matches_per_core_at_corners(self):
        """At the extreme thetas the two schemes coincide: theta = 0
        is per-thread min-energy for both; theta -> inf is per-thread
        min-time for both."""
        problems = cached_interval_problems("cholesky", "simple_alu")
        centre = np.mean([p.equal_weight_theta() for p in problems])
        sweeps = _sweeps("cholesky", thetas=[0.0, centre * 1e6])
        syn, pc = sweeps["SynTS"], sweeps["Per-core TS"]
        assert syn[0].energy == pytest.approx(pc[0].energy, rel=1e-9)
        assert syn[1].time == pytest.approx(pc[1].time, rel=1e-9)


class TestParetoFront:
    def test_front_is_non_dominated(self):
        pts = [
            TradeoffPoint(1, 1.0, 0.5),
            TradeoffPoint(2, 0.8, 0.7),
            TradeoffPoint(3, 0.9, 0.9),  # dominated by the second
            TradeoffPoint(4, 0.7, 0.9),
        ]
        front = pareto_front(pts)
        assert TradeoffPoint(3, 0.9, 0.9) not in front
        assert len(front) == 3

    def test_front_sorted_by_time(self):
        pts = [TradeoffPoint(i, t, 1 - t) for i, t in enumerate((0.9, 0.5, 0.7))]
        front = pareto_front(pts)
        times = [p.time for p in front]
        assert times == sorted(times)
