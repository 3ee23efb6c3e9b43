"""SynTS hardware overhead study (paper Section 6.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".estimate": (
            "STAGE_CORE_FRACTION", "OverheadReport", "estimate_overhead",
        ),
        ".hardware": (
            "ACTIVITY_FACTOR", "CLOCK_GATING_FACTOR", "MIN_TSR",
            "SequentialCosts", "StageInventory", "SynTSAdditions",
            "stage_inventory", "synts_additions_for",
        ),
    },
)
