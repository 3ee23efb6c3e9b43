"""Architectural substrate: Razor pipelines, instruction traces, a
barrier-synchronised multi-core simulator, and the instruction-level
online controller (the repo's gem5 stand-in)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".multicore": ("BarrierIntervalStats", "MultiCoreSim"),
        ".online_sim": ("SimulatedOnlineOutcome", "simulate_online_interval"),
        ".pipeline": ("CoreResult", "SteppedPipeline", "execute_trace"),
        ".razor": ("RazorStage", "RazorStats"),
        ".trace": (
            "MEMORY_LATENCY", "InstructionTrace",
            "sample_delays_from_error_function", "trace_for_thread",
        ),
    },
)
