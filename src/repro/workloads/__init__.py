"""Workload substrate: SPLASH-2 benchmark profiles, the open workload
registry (plus a deterministic synthetic-workload generator), operand
trace generation and cross-layer characterisation (paper Sections
5.2-5.4)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".characterization": (
            "RADIX_LIKE_PROFILES", "ThreadCharacterization",
            "characterize_threads",
        ),
        ".model": ("BarrierInterval", "Benchmark", "ThreadWorkload"),
        ".registry": (
            "WORKLOAD_REGISTRY", "WorkloadEntry", "build_benchmark",
            "register_synthetic", "register_workload", "reported_benchmarks",
            "synthetic_profile", "unregister_workload",
        ),
        ".splash2": (
            "EXCLUDED_BENCHMARKS", "HETEROGENEOUS_BENCHMARKS",
            "SPLASH2_PROFILES", "STAGE_SHAPES", "BenchmarkProfile",
            "StageErrorShape", "thread_error_function",
        ),
        ".traces": ("OperandProfile", "TraceGenerator"),
    },
)
