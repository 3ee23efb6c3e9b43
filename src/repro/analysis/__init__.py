"""Reporting and ASCII plotting helpers for the experiment drivers."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plots": ("ascii_bars", "ascii_scatter"),
        ".report": ("Series", "format_kv", "format_table"),
    },
)

__all__ = ["format_table", "format_kv", "Series", "ascii_scatter", "ascii_bars"]
