"""Reporting and ASCII plotting helpers for the experiment drivers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".plots": ("ascii_scatter",),
        ".report": ("Series", "format_kv", "format_table"),
    },
)
