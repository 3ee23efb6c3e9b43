"""Exactness chain: SynTS-Poly == brute force == SynTS-MILP.

This is the reproduction's load-bearing property test: Lemma 4.2.1
(optimality of Algorithm 1) and the equivalence of the MILP
formulation (Eqs. 4.5-4.10) are checked on randomised instances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.poly
from repro.core import (
    PlatformConfig,
    SynTSProblem,
    ThreadParams,
    barrier_topology,
    build_synts_milp,
    solve_no_ts,
    solve_per_core_ts,
    solve_synts_brute,
    solve_synts_milp,
    solve_synts_poly,
    solve_synts_sync,
)
from repro.errors.probability import ZeroErrorFunction

from .conftest import random_problem
from .poly_reference import solve_synts_poly_reference

#: Every solver entry point, as ``(problem, theta) -> anything``.  The
#: per-interval SynTS, No TS and Per-core TS solvers are one-element
#: calls to their batch kernels, so they cover those kernels' input
#: checks; ``test_poly_vectorized.py`` checks the kernels on many
#: intervals against independent oracles.
SOLVER_ENTRY_POINTS = {
    "synts_poly": solve_synts_poly,
    "synts_poly_reference": solve_synts_poly_reference,
    "synts_brute": solve_synts_brute,
    "synts_milp": solve_synts_milp,
    "build_synts_milp": build_synts_milp,
    "synts_sync": lambda p, t: solve_synts_sync(
        p, t, barrier_topology(p.n_threads)
    ),
    "no_ts": solve_no_ts,
    "per_core_ts": solve_per_core_ts,
}


class TestPolyBasics:
    def test_solution_structure(self, tiny_problem):
        sol = solve_synts_poly(tiny_problem, theta=1.0)
        assert len(sol.indices) == tiny_problem.n_threads
        for j, k in sol.indices:
            assert 0 <= j < tiny_problem.config.n_voltages
            assert 0 <= k < tiny_problem.config.n_tsr
        assert sol.cost == pytest.approx(sol.evaluation.cost(1.0))

    def test_negative_theta_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            solve_synts_poly(tiny_problem, theta=-1.0)

    def test_critical_thread_attains_texec(self, tiny_problem):
        sol = solve_synts_poly(tiny_problem, theta=2.0)
        times = sol.evaluation.times
        assert max(times) == pytest.approx(sol.evaluation.texec)

    def test_theta_zero_minimises_energy_only(self, tiny_problem):
        """At theta = 0 every thread takes its global min-energy
        configuration (time is free)."""
        sol = solve_synts_poly(tiny_problem, theta=0.0)
        e = tiny_problem.energy_table.reshape(tiny_problem.n_threads, -1)
        for i in range(tiny_problem.n_threads):
            j, k = sol.indices[i]
            flat = j * tiny_problem.config.n_tsr + k
            assert e[i, flat] == pytest.approx(float(e[i].min()))

    def test_large_theta_minimises_time(self, tiny_problem):
        """As theta -> inf the solution approaches the min-makespan
        assignment."""
        sol = solve_synts_poly(tiny_problem, theta=1e9)
        t = tiny_problem.time_table.reshape(tiny_problem.n_threads, -1)
        min_makespan = max(float(t[i].min()) for i in range(tiny_problem.n_threads))
        assert sol.evaluation.texec == pytest.approx(min_makespan)

    def test_cost_monotone_in_theta(self, tiny_problem):
        costs = [
            solve_synts_poly(tiny_problem, th).cost for th in (0.0, 1.0, 5.0, 25.0)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))


class TestExactnessChain:
    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        theta=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        m=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_poly_equals_brute(self, seed, theta, m):
        """Lemma 4.2.1 on random instances."""
        problem = random_problem(np.random.default_rng(seed), m=m)
        poly = solve_synts_poly(problem, theta)
        brute = solve_synts_brute(problem, theta)
        assert poly.cost == pytest.approx(brute.cost, rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        theta=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_milp_equals_poly(self, seed, theta):
        """Eqs. 4.5-4.10 solve to the same optimum as Algorithm 1."""
        problem = random_problem(np.random.default_rng(seed), m=3)
        poly = solve_synts_poly(problem, theta)
        milp = solve_synts_milp(problem, theta)
        assert milp.cost == pytest.approx(poly.cost, rel=1e-6)

    def test_full_platform_poly_equals_milp(self):
        """One full-size instance (M=4, Q=7, S=6) through both routes."""
        from repro.core import interval_problems
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("radix"), "decode")[0]
        theta = problem.equal_weight_theta()
        poly = solve_synts_poly(problem, theta)
        milp = solve_synts_milp(problem, theta)
        assert milp.cost == pytest.approx(poly.cost, rel=1e-6)

    def test_milp_never_calls_poly(self, tiny_problem, monkeypatch):
        """The certificate is independent: it finds the optimum with
        every SynTS-Poly solver disabled."""
        theta = 2.0
        expected = solve_synts_poly(tiny_problem, theta)

        def forbidden(*args, **kwargs):
            raise AssertionError("SynTS-MILP called a SynTS-Poly solver")

        for name in (
            "solve_synts_poly",
            "solve_synts_poly_batch",
            "solve_synts_stack",
        ):
            monkeypatch.setattr(repro.core.poly, name, forbidden)
        milp = solve_synts_milp(tiny_problem, theta)
        assert milp.cost == pytest.approx(expected.cost, rel=1e-6)

    def test_milp_returns_one_of_exactly_tied_optima(self):
        """Two identical TSR levels make every optimum come in
        bit-identical pairs; the MILP must land on one of them."""
        table = {1.0: 1.0, 0.86: 1.27, 0.72: 1.63}
        config = PlatformConfig(
            voltages=tuple(table),
            tnom_table=table,
            tsr_levels=(0.8, 0.8, 1.0),
        )
        problem = SynTSProblem(
            config=config,
            threads=(
                ThreadParams(300, 1.2, ZeroErrorFunction()),
                ThreadParams(180, 1.4, ZeroErrorFunction()),
            ),
        )
        theta = problem.equal_weight_theta()
        configs = list(itertools.product(range(3), range(3)))
        costs = {
            indices: problem.evaluate_indices(indices).cost(theta)
            for indices in itertools.product(configs, repeat=2)
        }
        best = min(costs.values())
        tied = {indices for indices, cost in costs.items() if cost == best}
        assert len(tied) == 4  # both threads at r = 0.8, either copy
        milp = solve_synts_milp(problem, theta)
        assert milp.indices in tied
        assert milp.cost == pytest.approx(best, rel=1e-6)
        assert solve_synts_poly(problem, theta).cost == pytest.approx(
            best, rel=1e-6
        )

    def test_brute_budget_guard(self):
        problem = random_problem(np.random.default_rng(1), m=3)
        with pytest.raises(ValueError, match="budget"):
            solve_synts_brute(problem, 1.0, max_assignments=10)


class TestSolutionDominance:
    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=30, deadline=None)
    def test_poly_never_worse_than_uniform_assignments(self, seed):
        """The optimum must beat every uniform (all threads same
        config) assignment."""
        problem = random_problem(np.random.default_rng(seed), m=3)
        theta = 3.0
        sol = solve_synts_poly(problem, theta)
        q, s = problem.config.n_voltages, problem.config.n_tsr
        for j in range(q):
            for k in range(s):
                ev = problem.evaluate_indices([(j, k)] * problem.n_threads)
                assert sol.cost <= ev.cost(theta) + 1e-9


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("solver", sorted(SOLVER_ENTRY_POINTS))
def test_non_finite_or_negative_theta_rejected(tiny_problem, solver, theta):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SOLVER_ENTRY_POINTS[solver](tiny_problem, theta)
