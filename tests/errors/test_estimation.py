"""Tests for the online sampling estimator (paper Section 4.3).

The estimates come from the online controller's own sampling phase,
:func:`repro.core.online.sample_interval`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnlineKnobs, PlatformConfig, SynTSProblem, ThreadParams
from repro.core.online import sample_interval
from repro.errors.estimation import SamplingPlan
from repro.errors.probability import (
    BetaTailErrorFunction,
    TabulatedErrorFunction,
    check_monotone_nonincreasing,
)

LEVELS = tuple(float(r) for r in np.linspace(0.64, 1.0, 6))


def true_fn(scale=0.12):
    return BetaTailErrorFunction(a=5.5, b=4.0, lo=0.4, hi=0.99, scale_p=scale)


def sample(truths, n_samp, rng):
    """One sampling phase, a thread per true error function, ``n_samp``
    instructions each: (records, estimated error functions)."""
    problem = SynTSProblem(
        config=PlatformConfig(tsr_levels=LEVELS),
        threads=tuple(
            ThreadParams(n_instructions=2 * n_samp, cpi_base=1.0, err=truth)
            for truth in truths
        ),
    )
    records, _, rates = sample_interval(problem, rng, OnlineKnobs(n_samp=n_samp))
    return records, [TabulatedErrorFunction(LEVELS, r) for r in rates]


class TestSamplingPlan:
    def test_even_split(self):
        plan = SamplingPlan(ratios=LEVELS, n_samp=60)
        np.testing.assert_array_equal(plan.instructions_per_level(), [10] * 6)

    def test_remainder_goes_to_early_levels(self):
        plan = SamplingPlan(ratios=LEVELS, n_samp=62)
        counts = plan.instructions_per_level()
        assert counts.sum() == 62
        assert counts.tolist() == [11, 11, 10, 10, 10, 10]

    def test_too_small_budget_rejected(self):
        with pytest.raises(ValueError):
            SamplingPlan(ratios=LEVELS, n_samp=3)

    def test_needs_multiple_levels(self):
        with pytest.raises(ValueError):
            SamplingPlan(ratios=(1.0,), n_samp=100)


class TestEstimation:
    def test_estimate_is_monotone(self):
        rng = np.random.default_rng(0)
        _, (est,) = sample([true_fn()], 600, rng)
        assert check_monotone_nonincreasing(est, np.linspace(0.64, 1.0, 30))

    def test_estimate_converges_with_samples(self):
        """More sampling instructions -> closer estimate (paper: the
        N_samp precision/overhead trade-off)."""
        truth = true_fn()
        grid = np.asarray(LEVELS)

        def mean_abs_err(n_samp, seed):
            rng = np.random.default_rng(seed)
            _, estimates = sample([truth] * 10, n_samp, rng)
            return np.mean(
                [np.mean(np.abs(est.curve(grid) - truth.curve(grid)))
                 for est in estimates]
            )

        small = mean_abs_err(120, 1)
        large = mean_abs_err(50_000, 2)
        assert large < small
        assert large < 0.01

    def test_record_bookkeeping(self):
        rng = np.random.default_rng(5)
        (record,), _ = sample([true_fn()], 600, rng)
        assert record.total_instructions() == 600
        assert 0 <= record.total_errors() <= 600
        assert record.raw_estimates.shape == (6,)

    def test_zero_error_function_estimated_as_zero(self):
        rng = np.random.default_rng(6)
        truth = BetaTailErrorFunction(a=2, b=2, lo=0.1, hi=0.2, scale_p=0.5)
        (record,), (est,) = sample([truth], 600, rng)
        assert record.total_errors() == 0
        assert np.all(est.curve(np.asarray(LEVELS)) == 0.0)

    def test_critical_thread_identified(self):
        """The paper's key fidelity claim (Fig. 6.17): the thread with
        the highest error curve is identified from samples."""
        rng = np.random.default_rng(7)
        scales = [0.48, 0.24, 0.16, 0.12]
        _, estimates = sample([true_fn(s) for s in scales], 8000, rng)
        at_min_r = [est(0.64) for est in estimates]
        assert int(np.argmax(at_min_r)) == 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_estimates_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        _, (est,) = sample([true_fn(0.4)], 120, rng)
        curve = est.curve(np.linspace(0.6, 1.0, 15))
        assert np.all((curve >= 0) & (curve <= 1))
        assert check_monotone_nonincreasing(est, np.linspace(0.6, 1.0, 15))
