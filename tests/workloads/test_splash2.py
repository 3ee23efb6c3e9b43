"""Tests for the SPLASH-2 workload profiles (Sections 5.2-5.4 facts)."""

import numpy as np
import pytest

from repro.errors.probability import check_monotone_nonincreasing
from repro.workloads.splash2 import (
    EXCLUDED_BENCHMARKS,
    HETEROGENEOUS_BENCHMARKS,
    SPLASH2_PROFILES,
    STAGE_SHAPES,
    thread_error_function,
)
from repro.workloads.registry import build_benchmark

RATIOS = np.linspace(0.64, 1.0, 6)


class TestSuiteStructure:
    def test_ten_benchmarks_characterised(self):
        assert len(SPLASH2_PROFILES) == 10

    def test_seven_reported_plus_three_excluded(self):
        assert len(HETEROGENEOUS_BENCHMARKS) == 7
        assert len(EXCLUDED_BENCHMARKS) == 3
        assert set(HETEROGENEOUS_BENCHMARKS) | set(EXCLUDED_BENCHMARKS) == set(
            SPLASH2_PROFILES
        )

    def test_all_profiles_four_threads(self):
        for profile in SPLASH2_PROFILES.values():
            assert profile.n_threads == 4

    def test_three_stage_shapes(self):
        assert set(STAGE_SHAPES) == {"decode", "simple_alu", "complex_alu"}


class TestPaperFacts:
    def test_radix_has_about_4x_heterogeneity(self):
        """Fig. 3.5: thread 0's error probability ~4x the lowest."""
        assert SPLASH2_PROFILES["radix"].heterogeneity == pytest.approx(4.0)

    def test_thread0_is_always_most_critical(self):
        for name in HETEROGENEOUS_BENCHMARKS:
            mults = SPLASH2_PROFILES[name].thread_multipliers
            assert mults[0] == max(mults)

    def test_fmm_has_low_absolute_errors(self):
        """Fig. 6.17: FMM error probabilities are ~1e-3 scale."""
        f = thread_error_function(SPLASH2_PROFILES["fmm"], "decode", 0)
        assert f(0.64) < 0.05

    def test_fft_error_wall(self):
        """Section 5.4: FFT errors are high, prohibiting speculation."""
        f = thread_error_function(SPLASH2_PROFILES["fft"], "simple_alu", 0)
        radix = thread_error_function(SPLASH2_PROFILES["radix"], "simple_alu", 0)
        assert f(0.8) > 4 * radix(0.8)

    def test_excluded_benchmarks_homogeneous(self):
        for name in EXCLUDED_BENCHMARKS:
            assert SPLASH2_PROFILES[name].heterogeneity < 1.1

    def test_complex_alu_damps_heterogeneity(self):
        """The multiplier wall is structural: thread multipliers move
        the ComplexALU curve less than the Decode curve."""
        prof = SPLASH2_PROFILES["radix"]
        dec0 = thread_error_function(prof, "decode", 0)(0.7)
        dec3 = thread_error_function(prof, "decode", 3)(0.7)
        cpx0 = thread_error_function(prof, "complex_alu", 0)(0.7)
        cpx3 = thread_error_function(prof, "complex_alu", 3)(0.7)
        assert dec0 / dec3 > cpx0 / cpx3

    def test_error_functions_monotone(self):
        for name in SPLASH2_PROFILES:
            for stage in STAGE_SHAPES:
                f = thread_error_function(SPLASH2_PROFILES[name], stage, 0)
                assert check_monotone_nonincreasing(f, RATIOS), (name, stage)


class TestBuildBenchmark:
    def test_builds_three_intervals(self):
        bm = build_benchmark("radix")
        assert bm.n_intervals == 3
        assert bm.n_threads == 4

    def test_intervals_drift(self):
        bm = build_benchmark("radix")
        n0 = bm.intervals[0].threads[0].instructions
        n1 = bm.intervals[1].threads[0].instructions
        assert n0 != n1

    def test_heterogeneous_flag(self):
        assert build_benchmark("radix").heterogeneous
        assert not build_benchmark("ocean").heterogeneous

    def test_stage_selection(self):
        bm = build_benchmark("fmm", stages=["decode"])
        t = bm.intervals[0].threads[0]
        assert set(t.error_functions) == {"decode"}
        with pytest.raises(KeyError):
            t.error_function("simple_alu")

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            build_benchmark("doom3")


class TestModelValidation:
    def test_thread_workload_validation(self):
        from repro.workloads.model import ThreadWorkload

        with pytest.raises(ValueError):
            ThreadWorkload(instructions=0, cpi_base=1.0, error_functions={})
        with pytest.raises(ValueError):
            ThreadWorkload(instructions=10, cpi_base=0.0, error_functions={})

    def test_interval_needs_threads(self):
        from repro.workloads.model import BarrierInterval

        with pytest.raises(ValueError):
            BarrierInterval(threads=())

    def test_benchmark_thread_count_consistency(self):
        from repro.workloads.model import BarrierInterval, Benchmark, ThreadWorkload
        from repro.errors.probability import ZeroErrorFunction

        t = ThreadWorkload(
            instructions=10, cpi_base=1.0, error_functions={"decode": ZeroErrorFunction()}
        )
        iv1 = BarrierInterval(threads=(t, t))
        iv2 = BarrierInterval(threads=(t,))
        with pytest.raises(ValueError, match="same thread count"):
            Benchmark(name="x", intervals=(iv1, iv2), heterogeneous=False)
