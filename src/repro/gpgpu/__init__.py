"""GPGPU case study: Radeon HD 7970 SIMD model, kernel workloads and
the Hamming-distance homogeneity analysis (paper Sections 3.2/5.5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".characterize": ("LaneErrorCurves", "characterize_lane_errors"),
        ".hamming": (
            "VALUAnalysis", "analyze_valus", "hamming_histogram",
            "successive_hamming", "total_variation",
        ),
        ".kernels": ("GPGPU_KERNELS", "Kernel", "get_kernel"),
        ".radeon": ("HD7970", "GPUConfig", "SIMDUnit", "VALUTrace"),
    },
)
