"""GPGPU case study: Radeon HD 7970 SIMD model, kernel workloads and
the Hamming-distance homogeneity analysis (paper Sections 3.2/5.5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
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

__all__ = [
    "GPUConfig",
    "HD7970",
    "SIMDUnit",
    "VALUTrace",
    "Kernel",
    "GPGPU_KERNELS",
    "get_kernel",
    "successive_hamming",
    "hamming_histogram",
    "total_variation",
    "VALUAnalysis",
    "analyze_valus",
    "LaneErrorCurves",
    "characterize_lane_errors",
]
