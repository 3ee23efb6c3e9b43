"""Tests for the Nominal / No-TS / Per-core TS comparison schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PlatformConfig,
    SynTSProblem,
    solve_no_ts,
    solve_nominal,
    solve_per_core_ts,
    solve_synts_poly,
)
from repro.core.baselines import solve_no_ts_batch

from .conftest import random_problem, small_config


class TestNominal:
    def test_all_threads_at_vmax_r1(self, tiny_problem):
        sol = solve_nominal(tiny_problem)
        for p in sol.assignment.points:
            assert p.voltage == tiny_problem.config.voltages[0]
            assert p.tsr == 1.0

    def test_zero_errors_at_nominal(self, tiny_problem):
        """r = 1 means no timing speculation, hence no error penalty:
        time is exactly N * CPI."""
        sol = solve_nominal(tiny_problem)
        for th, t in zip(tiny_problem.threads, sol.evaluation.times):
            base = th.n_instructions * th.cpi_base
            # err(1.0) may be > 0 only if the delay support reaches 1.0
            assert t >= base - 1e-12


class TestNoTS:
    def test_never_speculates(self, tiny_problem):
        sol = solve_no_ts(tiny_problem, theta=1.0)
        for p in sol.assignment.points:
            assert p.tsr == 1.0

    def test_beats_nominal_cost(self, tiny_problem):
        theta = 1.0
        nominal = solve_nominal(tiny_problem, theta)
        no_ts = solve_no_ts(tiny_problem, theta)
        assert no_ts.cost <= nominal.cost + 1e-9

    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=25, deadline=None)
    def test_property_synts_dominates_no_ts(self, seed):
        """SynTS optimises a superset of No-TS's space: its cost can
        never be worse."""
        problem = random_problem(np.random.default_rng(seed), m=3)
        theta = 2.0
        assert (
            solve_synts_poly(problem, theta).cost
            <= solve_no_ts(problem, theta).cost + 1e-9
        )


    def test_batch_builds_one_r1_config_per_shared_config(
        self, monkeypatch
    ):
        """k problems on one config share a single r = 1 slice config,
        and the memo leaves every solution bit-identical."""
        rng = np.random.default_rng(4)
        first = random_problem(rng)
        problems = [first] + [
            SynTSProblem(config=first.config, threads=random_problem(rng).threads)
            for _ in range(3)
        ]
        thetas = [0.5, 1.0, 2.0, 4.0]
        built = []
        init = PlatformConfig.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("tsr_levels"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlatformConfig, "__init__", counting_init)
        batch = solve_no_ts_batch(problems, thetas)
        assert built == [(1.0,)]
        monkeypatch.undo()
        for problem, theta, sol in zip(problems, thetas, batch):
            # a fresh config: its own, unshared r = 1 slice
            alone = SynTSProblem(config=small_config(), threads=problem.threads)
            single = solve_no_ts(alone, theta)
            assert sol.indices == single.indices
            assert sol.cost == single.cost


class TestPerCoreTS:
    def test_each_core_individually_optimal(self, tiny_problem):
        theta = 2.0
        sol = solve_per_core_ts(tiny_problem, theta)
        t = tiny_problem.time_table.reshape(tiny_problem.n_threads, -1)
        e = tiny_problem.energy_table.reshape(tiny_problem.n_threads, -1)
        s = tiny_problem.config.n_tsr
        for i, (j, k) in enumerate(sol.indices):
            flat = j * s + k
            per_core_cost = e[i] + theta * t[i]
            assert per_core_cost[flat] == pytest.approx(float(per_core_cost.min()))

    @given(
        seed=st.integers(min_value=0, max_value=20_000),
        theta=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_synts_dominates_per_core(self, seed, theta):
        """The joint optimum can never have higher cost than the
        independent per-core choices -- the paper's core claim."""
        problem = random_problem(np.random.default_rng(seed), m=4)
        syn = solve_synts_poly(problem, theta)
        pc = solve_per_core_ts(problem, theta)
        assert syn.cost <= pc.cost + 1e-9

    def test_negative_theta_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            solve_per_core_ts(tiny_problem, -1.0)


class TestPaperOrdering:
    def test_headline_edp_ordering_on_radix_decode(self):
        """On the calibrated Radix/decode instance at equal-weight
        theta: SynTS beats both comparison schemes in cost and EDP.
        (Per-core TS is *not* ordered against Nominal in joint cost:
        it optimises per-thread sums, not the barrier max -- exactly
        the deficiency the paper identifies.)"""
        from repro.core import interval_problems
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("radix"), "decode")[0]
        theta = problem.equal_weight_theta()
        syn = solve_synts_poly(problem, theta)
        pc = solve_per_core_ts(problem, theta)
        nom = solve_nominal(problem, theta)
        assert syn.cost <= pc.cost
        assert syn.cost <= nom.cost
        assert syn.evaluation.edp < pc.evaluation.edp
        assert syn.evaluation.edp < nom.evaluation.edp
