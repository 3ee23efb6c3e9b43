"""Theta grids and Pareto fronts (paper Figs. 6.11-6.16).

Each point of the published Pareto plots is one value of the weight
``theta`` in Eq. 4.4: large theta favours execution time, small theta
favours energy.  This module holds the grid and the front; the sweep
itself runs as engine cells (``repro.experiments.pareto_figs``), each
point normalised to the Nominal baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .problem import SynTSProblem

__all__ = [
    "TradeoffPoint",
    "theta_grid",
    "pareto_front",
]


@dataclass(frozen=True)
class TradeoffPoint:
    """One theta's outcome, normalised to the Nominal baseline."""

    theta: float
    time: float  # normalised execution time
    energy: float  # normalised energy

    def dominates(self, other: "TradeoffPoint", tol: float = 1e-12) -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = self.time <= other.time + tol and self.energy <= other.energy + tol
        better = self.time < other.time - tol or self.energy < other.energy - tol
        return no_worse and better


def theta_grid(
    problems: Sequence[SynTSProblem],
    n_points: int = 21,
    decades: float = 2.0,
) -> np.ndarray:
    """Log-spaced theta grid centred on the equal-weight theta."""
    centre = float(np.mean([p.equal_weight_theta() for p in problems]))
    return centre * np.logspace(-decades, decades, n_points)


def pareto_front(points: Sequence[TradeoffPoint]) -> List[TradeoffPoint]:
    """Non-dominated subset, sorted by time."""
    front = [
        p
        for p in points
        if not any(q.dominates(p) for q in points)
    ]
    # dedupe identical points
    seen = set()
    unique = []
    for p in sorted(front, key=lambda p: (p.time, p.energy)):
        key = (round(p.time, 12), round(p.energy, 12))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique
