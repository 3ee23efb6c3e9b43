"""Tests for the GPGPU case study (Sections 3.2 / 5.5, Figs. 5.9-5.10)."""

import numpy as np
import pytest

from repro.gpgpu import (
    GPGPU_KERNELS,
    HD7970,
    GPUConfig,
    SIMDUnit,
    analyze_valus,
    get_kernel,
    hamming_histogram,
    successive_hamming,
    total_variation,
)


class TestGeometry:
    def test_hd7970_published_configuration(self):
        gpu = HD7970()
        assert gpu.config.n_compute_units == 32
        assert gpu.config.simd_per_cu == 4
        assert gpu.config.lanes_per_simd == 16
        assert gpu.config.wavefront_size == 64
        assert gpu.total_lanes == 2048

    def test_wavefront_lane_consistency(self):
        with pytest.raises(ValueError):
            GPUConfig(lanes_per_simd=10, wavefront_size=64)


class TestKernels:
    def test_nine_benchmarks(self):
        """The paper characterises nine GPGPU benchmarks."""
        assert len(GPGPU_KERNELS) == 9

    @pytest.mark.parametrize("name", sorted(GPGPU_KERNELS))
    def test_kernel_shapes_and_determinism(self, name):
        k = get_kernel(name)
        ids = np.arange(32)
        a = k.trace(ids, 16, seed=3)
        b = k.trace(ids, 16, seed=3)
        assert a.shape == (32, 16)
        assert a.dtype == np.uint32
        np.testing.assert_array_equal(a, b)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            get_kernel("bitcoin_miner")

    @pytest.mark.parametrize("name", sorted(GPGPU_KERNELS))
    def test_outputs_not_constant(self, name):
        k = get_kernel(name)
        out = k.trace(np.arange(16), 32, seed=1)
        assert len(np.unique(out)) > 4


class TestSIMDExecution:
    def test_one_trace_per_lane(self):
        traces = SIMDUnit().execute("matrix_mult", 64, 8, seed=0)
        assert len(traces) == 16
        assert [t.lane for t in traces] == list(range(16))

    def test_round_robin_distribution(self):
        """Lane l gets work-items l, l+16, ...; outputs concatenate."""
        traces = SIMDUnit().execute("matrix_mult", 64, 8, seed=0)
        k = get_kernel("matrix_mult")
        all_out = k.trace(np.arange(64), 8, seed=0)
        lane0_expected = all_out[0::16, :].reshape(-1)
        np.testing.assert_array_equal(traces[0].outputs, lane0_expected)

    def test_work_items_must_fill_lanes(self):
        with pytest.raises(ValueError):
            SIMDUnit().execute("fft", 10, 8)


class TestHamming:
    def test_successive_hamming_basic(self):
        out = np.array([0b0000, 0b0011, 0b0111], dtype=np.uint32)
        np.testing.assert_array_equal(successive_hamming(out), [2, 1])

    def test_histogram_normalised(self):
        rng = np.random.default_rng(0)
        h = hamming_histogram(rng.integers(0, 2**31, 500, dtype=np.uint32))
        assert h.shape == (33,)
        assert h.sum() == pytest.approx(1.0)

    def test_total_variation_properties(self):
        h1 = np.array([0.5, 0.5, 0.0])
        h2 = np.array([0.0, 0.5, 0.5])
        assert total_variation(h1, h1) == 0.0
        assert total_variation(h1, h2) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            total_variation(h1, np.array([1.0]))

    def test_analysis_matches_per_trace_functions(self):
        """analyze_valus computes each stream's distances once; its
        histograms and means equal the per-trace public functions."""
        from repro.gpgpu.radeon import VALUTrace

        rng = np.random.default_rng(2)
        traces = [
            VALUTrace(i, rng.integers(0, 2**31, 300).astype(np.uint32))
            for i in range(3)
        ]
        analysis = analyze_valus(traces)
        for lane, trace in enumerate(traces):
            np.testing.assert_array_equal(
                analysis.histograms[lane], hamming_histogram(trace.outputs)
            )
            assert (
                analysis.mean_distance[lane]
                == successive_hamming(trace.outputs).mean()
            )

    def test_too_short_stream_rejected(self):
        with pytest.raises(ValueError):
            successive_hamming(np.array([1], dtype=np.uint32))


class TestHomogeneityFinding:
    """The paper's GPGPU result: all benchmarks show homogeneous
    per-VALU output statistics (Fig. 5.10), so SynTS is unnecessary
    there and per-core TS works 'just fine'."""

    @pytest.mark.parametrize("name", sorted(GPGPU_KERNELS))
    def test_all_kernels_homogeneous_across_valus(self, name):
        # 128 work-items x 128 instructions per lane = 16k outputs,
        # the paper's Fig. 5.10 trace length
        traces = HD7970().characterize_simd(name, n_work_items=2048,
                                            instructions_per_item=128, seed=5)
        analysis = analyze_valus(traces)
        assert analysis.n_lanes == 16
        assert traces[0].n_outputs == 16384
        assert analysis.is_homogeneous, (
            f"{name}: max pairwise TV {analysis.max_pairwise_tv:.3f}"
        )

    def test_heterogeneous_streams_detected(self):
        """Sanity: the metric is not vacuous -- genuinely different
        streams fail the homogeneity test."""
        from repro.gpgpu.radeon import VALUTrace

        rng = np.random.default_rng(1)
        wide = VALUTrace(0, rng.integers(0, 2**31, 2000).astype(np.uint32))
        narrow = VALUTrace(1, rng.integers(0, 4, 2000).astype(np.uint32))
        analysis = analyze_valus([wide, narrow])
        assert not analysis.is_homogeneous

    def test_mean_distance_similar_across_lanes(self):
        traces = HD7970().characterize_simd(
            "black_scholes", n_work_items=2048, instructions_per_item=128
        )
        analysis = analyze_valus(traces)
        spread = analysis.mean_distance.max() / analysis.mean_distance.min()
        assert spread < 1.1
