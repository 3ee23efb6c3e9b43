"""ASCII plotting for terminal-rendered figures.

The repository has no GUI dependency; figures regenerate as ASCII
scatter charts that show the same qualitative shapes as the
paper's plots (who is above whom, where curves cross).
"""

from __future__ import annotations

from typing import Sequence

from .report import Series

__all__ = ["ascii_scatter"]

_MARKERS = "ox+*#@%&"


def ascii_scatter(
    series: Sequence[Series],
    width: int = 64,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Scatter multiple series on one character grid."""
    if not series:
        raise ValueError("need at least one series")
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not xs:
        raise ValueError("series contain no points")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, s in enumerate(series):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in zip(s.x, s.y):
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = marker

    lines = [f"{y_label} ({y_min:.3g} .. {y_max:.3g})"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} ({x_min:.3g} .. {x_max:.3g})")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)

