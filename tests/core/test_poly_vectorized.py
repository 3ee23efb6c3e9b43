"""Bit-exactness of the offline solvers against independent oracles.

Each offline scheme has one kernel, its batch solver; the
per-interval solver is a one-element batch call.  So every batch is
checked against an oracle that shares no code with it: SynTS-Poly
and No TS against the scalar reference (No TS on the r = 1 slice),
Per-core TS against a per-thread ``np.argmin``.  Same winning
candidate under the ``< best - 1e-15`` first-wins fold, same indices,
same floats -- including exact time/energy tie cases (duplicated
threads, zero-error flats, duplicated TSR levels).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynTSProblem, ThreadParams
from repro.core.baselines import (
    solve_no_ts,
    solve_no_ts_batch,
    solve_per_core_ts,
    solve_per_core_ts_batch,
)
import repro.core.poly as poly
from repro.core.poly import (
    SynTSSolution,
    prune_dominated_tables,
    solve_synts_poly,
    solve_synts_poly_batch,
)
from repro.errors.probability import ZeroErrorFunction

from .conftest import random_problem, small_config
from .poly_reference import _sorted_prefix_tables, solve_synts_poly_reference


def assert_solutions_identical(a, b):
    """Bit-identical solutions: structure and every float."""
    assert a.indices == b.indices
    assert a.critical_thread == b.critical_thread
    assert a.cost == b.cost  # exact, no approx
    assert a.evaluation == b.evaluation
    assert a.assignment == b.assignment
    assert a.theta == b.theta


def _oracle_solution(problem, theta, indices, critical_thread):
    evaluation = problem.evaluate_indices(indices)
    return SynTSSolution(
        indices=indices,
        assignment=problem.assignment_from_indices(indices),
        evaluation=evaluation,
        cost=float(evaluation.cost(theta)),
        theta=theta,
        critical_thread=critical_thread,
    )


def per_core_ts_oracle(problem, theta):
    """Per-core TS by definition: each thread's first-minimum
    configuration of ``en_i + theta * t_i``, costed at the barrier."""
    m, s = problem.n_threads, problem.config.n_tsr
    t = problem.time_table.reshape(m, -1)
    e = problem.energy_table.reshape(m, -1)
    flat = [int(np.argmin(e[i] + theta * t[i])) for i in range(m)]
    indices = tuple((f // s, f % s) for f in flat)
    texecs = problem.evaluate_indices(indices).times
    return _oracle_solution(
        problem, theta, indices, int(np.argmax(np.array(texecs)))
    )


def no_ts_oracle(problem, theta):
    """No TS by definition: the reference solve on the r = 1 slice,
    re-expressed at the full platform's r = 1 TSR index."""
    sliced = solve_synts_poly_reference(problem.restrict_tsr([1.0]), theta)
    k = problem.config.n_tsr - 1
    indices = tuple((j, k) for j, _ in sliced.indices)
    return _oracle_solution(problem, theta, indices, sliced.critical_thread)


def tie_problem(rng, m, duplicate_threads=True):
    """A problem engineered for exact ties.

    Duplicated threads make whole candidate rows bit-equal across
    critical-thread choices; ``ZeroErrorFunction`` threads have
    energies independent of the TSR level, so every voltage row
    carries S-way exact energy ties in the minEnergy staircase.
    """
    base = ThreadParams(
        n_instructions=int(rng.integers(50, 300)),
        cpi_base=float(rng.uniform(1.0, 1.6)),
        err=ZeroErrorFunction(),
    )
    if duplicate_threads:
        threads = tuple(base for _ in range(m))
    else:
        threads = tuple(
            ThreadParams(
                n_instructions=base.n_instructions + i,
                cpi_base=base.cpi_base,
                err=ZeroErrorFunction(),
            )
            for i in range(m)
        )
    return SynTSProblem(config=small_config(3, 3), threads=threads)


class TestVectorizedEqualsReference:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        theta=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        m=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_problems(self, seed, theta, m):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, m=m)
        assert_solutions_identical(
            solve_synts_poly(problem, theta),
            solve_synts_poly_reference(problem, theta),
        )

    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        theta=st.sampled_from([0.0, 1.0, 5.0, 1e6]),
        m=st.integers(min_value=2, max_value=4),
        duplicate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_tie_cases(self, seed, theta, m, duplicate):
        """Duplicated threads / flat error curves force bit-equal
        candidate costs; the first-wins fold must pick the same
        winner in both implementations."""
        rng = np.random.default_rng(seed)
        problem = tie_problem(rng, m, duplicate_threads=duplicate)
        assert_solutions_identical(
            solve_synts_poly(problem, theta),
            solve_synts_poly_reference(problem, theta),
        )

    def test_theta_validation_matches(self, tiny_problem):
        with pytest.raises(ValueError):
            solve_synts_poly(tiny_problem, theta=-0.5)
        with pytest.raises(ValueError):
            solve_synts_poly_reference(tiny_problem, theta=-0.5)

    def test_single_thread(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, m=1)
        assert_solutions_identical(
            solve_synts_poly(problem, 2.0),
            solve_synts_poly_reference(problem, 2.0),
        )


class TestDominatedPruning:
    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_staircase_matches_prefix_tables(self, seed):
        """Lookups on the pruned staircase are bit-identical to the
        full sorted prefix-min tables for arbitrary texec queries."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, m=3)
        m = problem.n_threads
        times = problem.time_table.reshape(m, -1)
        energies = problem.energy_table.reshape(m, -1)
        t_sorted, prefix_min, argmin_flat = _sorted_prefix_tables(problem)
        stairs = prune_dominated_tables(times, energies)

        queries = np.concatenate(
            [times.ravel(), rng.uniform(times.min() * 0.5, times.max() * 1.5, 50)]
        )
        for l in range(m):
            t_star, e_star, idx_star = stairs[l]
            # staircase structure: times ascending, energies strictly
            # decreasing (each survivor improves the running minimum)
            assert np.all(np.diff(t_star) >= 0)
            assert np.all(np.diff(e_star) < 0)
            for texec in queries:
                pos_full = int(np.searchsorted(t_sorted[l], texec, "right")) - 1
                pos_star = int(np.searchsorted(t_star, texec, "right")) - 1
                assert (pos_full < 0) == (pos_star < 0)
                if pos_full >= 0:
                    assert e_star[pos_star] == prefix_min[l, pos_full]
                    assert idx_star[pos_star] == argmin_flat[l, pos_full]

    def test_dominated_configs_are_dropped(self):
        """A config no faster and no cheaper than another never
        survives pruning."""
        times = np.array([[1.0, 2.0, 2.0, 3.0]])
        energies = np.array([[5.0, 4.0, 6.0, 4.0]])
        ((t_star, e_star, idx), ) = prune_dominated_tables(times, energies)
        # config 2 (t=2, e=6) is dominated by config 1 (t=2, e=4);
        # config 3 (t=3, e=4) is no faster and no cheaper than 1
        assert list(idx) == [0, 1]
        assert list(t_star) == [1.0, 2.0]
        assert list(e_star) == [5.0, 4.0]

    def test_exact_duplicate_keeps_first(self):
        times = np.array([[2.0, 2.0, 1.0]])
        energies = np.array([[3.0, 3.0, 7.0]])
        ((t_star, e_star, idx), ) = prune_dominated_tables(times, energies)
        assert list(idx) == [2, 0]  # the flat-order-first duplicate

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            prune_dominated_tables(np.ones(4), np.ones(4))


class TestBatchSolver:
    @given(
        seed=st.integers(min_value=0, max_value=50_000),
        n_problems=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_per_cell(self, seed, n_problems):
        rng = np.random.default_rng(seed)
        problems = [random_problem(rng, m=3) for _ in range(n_problems)]
        thetas = [float(rng.uniform(0, 20)) for _ in problems]
        batch = solve_synts_poly_batch(problems, thetas)
        for problem, theta, sol in zip(problems, thetas, batch):
            assert_solutions_identical(
                sol, solve_synts_poly_reference(problem, theta)
            )

    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=15, deadline=None)
    def test_mixed_shapes_and_ties(self, seed):
        """Heterogeneous thread counts (shape groups) and tie-heavy
        problems in one batch."""
        rng = np.random.default_rng(seed)
        problems = [
            random_problem(rng, m=2),
            tie_problem(rng, 3),
            random_problem(rng, m=3),
            tie_problem(rng, 3),
            random_problem(rng, m=2),
        ]
        thetas = [0.0, 1.0, 3.0, 1.0, 7.0]
        batch = solve_synts_poly_batch(problems, thetas)
        for problem, theta, sol in zip(problems, thetas, batch):
            assert_solutions_identical(
                sol, solve_synts_poly_reference(problem, theta)
            )

    @pytest.mark.parametrize(
        "solve",
        [solve_synts_poly_batch, solve_no_ts_batch, solve_per_core_ts_batch],
        ids=["synts", "no_ts", "per_core_ts"],
    )
    def test_input_validation(self, solve):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, m=2)
        with pytest.raises(ValueError, match="got 1 problems but 2 thetas"):
            solve([problem], [1.0, 2.0])
        with pytest.raises(ValueError, match="got 2 problems but 3 thetas"):
            solve([problem, problem], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="got 2 problems but 1 thetas"):
            solve([problem, problem], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            solve([problem, problem], [1.0, -1.0])

    def test_empty_batch(self):
        assert solve_synts_poly_batch([], []) == []


class TestBaselineBatchSolvers:
    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        n_problems=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_no_ts_batch_equals_per_cell(self, seed, n_problems):
        rng = np.random.default_rng(seed)
        problems = [random_problem(rng, m=3) for _ in range(n_problems)]
        thetas = [float(rng.uniform(0, 20)) for _ in problems]
        for problem, theta, sol in zip(
            problems, thetas, solve_no_ts_batch(problems, thetas)
        ):
            assert_solutions_identical(sol, no_ts_oracle(problem, theta))

    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        n_problems=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_per_core_ts_batch_equals_per_cell(self, seed, n_problems):
        rng = np.random.default_rng(seed)
        problems = [
            random_problem(rng, m=2 + (i % 2)) for i in range(n_problems)
        ]
        thetas = [float(rng.uniform(0, 20)) for _ in problems]
        for problem, theta, sol in zip(
            problems, thetas, solve_per_core_ts_batch(problems, thetas)
        ):
            assert_solutions_identical(sol, per_core_ts_oracle(problem, theta))

    def test_no_ts_batch_keeps_each_thetas_critical_thread(self):
        """Two thetas whose No TS winners share indices but not the
        critical thread: the shared (problem, indices) expansion must
        still carry each theta's own critical thread."""
        threads = tuple(
            ThreadParams(n_instructions=n, cpi_base=c, err=ZeroErrorFunction())
            for n, c in [
                (260, 1.5411666640331463),
                (1280, 1.4317639698930318),
                (3936, 1.4959052613471095),
                (3394, 1.301157762280389),
                (3936, 1.4959052613471095),
            ]
        )
        problem = SynTSProblem(config=small_config(3, 3), threads=threads)
        thetas = [float(t) for t in np.geomspace(1e-4, 1e4, 41)[21:23]]
        batch = solve_no_ts_batch([problem, problem], thetas)
        assert batch[0].indices == batch[1].indices
        assert batch[0].critical_thread != batch[1].critical_thread
        for theta, sol in zip(thetas, batch):
            assert_solutions_identical(sol, no_ts_oracle(problem, theta))


#: The Eq. 4.4 weights of the exact-tie cases: 1e6 makes texec
#: dominate, 0 makes energy alone decide.
TIE_THETAS = [0.0, 1.0, 5.0, 1e6]


def repeated_sweep(rng, duplicate):
    """A theta sweep over few problem objects, as a Pareto figure
    submits it: every distinct problem appears at every theta (and
    once more at a repeated theta), shuffled, across two table shapes
    with two problems each -- including exact-tie tables."""
    distinct = [
        tie_problem(rng, 3, duplicate_threads=duplicate),
        random_problem(rng, m=2),
        random_problem(rng, m=3),
        tie_problem(rng, 2, duplicate_threads=duplicate),
    ]
    pairs = [(p, theta) for p in distinct for theta in TIE_THETAS]
    pairs += [(p, TIE_THETAS[1]) for p in distinct]
    order = rng.permutation(len(pairs))
    return [pairs[i][0] for i in order], [pairs[i][1] for i in order]


class TestRepeatedProblems:
    """Batches that repeat the same problem objects at many thetas:
    the shared per-problem work must not change any solution."""

    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        duplicate=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_synts_batch_repeats(self, seed, duplicate):
        rng = np.random.default_rng(seed)
        problems, thetas = repeated_sweep(rng, duplicate)
        batch = solve_synts_poly_batch(problems, thetas)
        for problem, theta, sol in zip(problems, thetas, batch):
            assert_solutions_identical(
                sol, solve_synts_poly_reference(problem, theta)
            )

    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        duplicate=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_no_ts_batch_repeats(self, seed, duplicate):
        rng = np.random.default_rng(seed)
        problems, thetas = repeated_sweep(rng, duplicate)
        for problem, theta, sol in zip(
            problems, thetas, solve_no_ts_batch(problems, thetas)
        ):
            assert_solutions_identical(sol, no_ts_oracle(problem, theta))

    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        duplicate=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_per_core_ts_batch_repeats(self, seed, duplicate):
        rng = np.random.default_rng(seed)
        problems, thetas = repeated_sweep(rng, duplicate)
        for problem, theta, sol in zip(
            problems, thetas, solve_per_core_ts_batch(problems, thetas)
        ):
            assert_solutions_identical(sol, per_core_ts_oracle(problem, theta))

    def test_theta_sweep_does_per_problem_work_once(self, monkeypatch):
        """A 21-theta sweep over k interval problems prunes k tables
        and slices k r = 1 problems, not 21 k."""
        from repro.core import interval_problems
        from repro.workloads import build_benchmark

        problems = list(
            interval_problems(build_benchmark("radix"), "decode")
        )
        k = len(problems)
        centre = problems[0].equal_weight_theta()
        sweep = [float(t) for t in np.linspace(0.0, 2.0 * centre, 21)]
        batch_problems = [p for _ in sweep for p in problems]
        batch_thetas = [t for t in sweep for _ in problems]

        calls = Counter()
        prune = poly.prune_dominated_tables
        restrict = SynTSProblem.restrict_tsr

        def counted_prune(*args):
            calls["prune"] += 1
            return prune(*args)

        def counted_restrict(self, levels):
            calls["restrict"] += 1
            return restrict(self, levels)

        monkeypatch.setattr(poly, "prune_dominated_tables", counted_prune)
        monkeypatch.setattr(SynTSProblem, "restrict_tsr", counted_restrict)
        solve_synts_poly_batch(batch_problems, batch_thetas)
        assert calls == {"prune": k}
        calls.clear()
        solve_no_ts_batch(batch_problems, batch_thetas)
        assert calls == {"prune": k, "restrict": k}

    def test_equal_weight_theta_is_memoised_exactly(self, tiny_problem):
        nominal = tiny_problem.nominal_evaluation()
        expected = nominal.total_energy / nominal.texec
        assert tiny_problem.equal_weight_theta() == expected
        assert tiny_problem.equal_weight_theta() == expected
        assert "_equal_weight_theta" in vars(tiny_problem)


class TestFullPlatform:
    def test_reference_agrees_on_real_benchmark(self):
        """One full-size instance (M=4, Q=7, S=6) from the workload
        model, through both implementations and the batch path."""
        from repro.core import interval_problems
        from repro.workloads import build_benchmark

        problems = list(
            interval_problems(build_benchmark("radix"), "decode")
        )
        theta = problems[0].equal_weight_theta()
        for problem in problems:
            assert_solutions_identical(
                solve_synts_poly(problem, theta),
                solve_synts_poly_reference(problem, theta),
            )
        batch = solve_synts_poly_batch(problems, [theta] * len(problems))
        for problem, sol in zip(problems, batch):
            assert_solutions_identical(
                sol, solve_synts_poly_reference(problem, theta)
            )


class TestCostOverflow:
    """A finite theta whose Eq. 4.4 cost overflows is refused by name."""

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.core import interval_problems
        from repro.workloads import build_benchmark

        return interval_problems(build_benchmark("radix"), "decode")[0]

    @pytest.mark.parametrize(
        "solve",
        [solve_synts_poly, solve_no_ts, solve_per_core_ts],
        ids=["synts", "no_ts", "per_core_ts"],
    )
    def test_overflowing_theta_names_theta(self, problem, solve):
        with pytest.raises(ValueError, match=r"theta=1e\+308 is too large"):
            solve(problem, 1e308)

    @pytest.mark.parametrize(
        "solve, oracle",
        [
            (solve_synts_poly, solve_synts_poly_reference),
            (solve_no_ts, no_ts_oracle),
            (solve_per_core_ts, per_core_ts_oracle),
        ],
        ids=["synts", "no_ts", "per_core_ts"],
    )
    def test_large_finite_cost_still_solves(self, problem, solve, oracle):
        """Slow candidates overflow, the optimum does not: it wins."""
        m = problem.n_threads
        r1_times = problem.restrict_tsr([1.0]).time_table.reshape(m, -1)
        theta = 1e308 / float(r1_times.min(axis=1).max())
        with np.errstate(over="ignore"):
            assert np.isinf(theta * problem.time_table).any()
            expected = oracle(problem, theta)
        assert_solutions_identical(solve(problem, theta), expected)
