"""Curve fitting utilities for error-probability estimation.

Contains the pool-adjacent-violators (PAVA) isotonic regression used to
project noisy sampled error rates onto the physically required
monotone-non-increasing shape, and a least-squares Beta-tail fitter for
summarising empirical delay distributions into the parametric form the
workload profiles use.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "isotonic_nonincreasing",
    "isotonic_nondecreasing",
    "pava",
    "fit_beta_tail",
]


def isotonic_nondecreasing(
    values: Sequence[float], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Weighted L2 projection onto non-decreasing sequences (PAVA).

    Validates the inputs and runs :func:`pava` on them.
    """
    y = np.asarray(values, dtype=float)
    w = (
        np.ones_like(y)
        if weights is None
        else np.asarray(weights, dtype=float)
    )
    if y.shape != w.shape or y.ndim != 1:
        raise ValueError("values and weights must be matching 1-D arrays")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return np.asarray(pava(y.tolist(), w.tolist()), dtype=float)


def pava(values: List[float], weights: List[float]) -> List[float]:
    """Pool-adjacent-violators on plain floats (positive weights).

    Classic PAVA: merge adjacent blocks whose means violate the
    non-decreasing order, replacing them with their weighted mean.
    O(n).  Plain lists keep the online controller's per-thread
    projection of six sampled rates free of numpy call overhead.
    """
    # blocks as (mean, weight, count) stacks
    means: List[float] = []
    wts: List[float] = []
    counts: List[int] = []
    for yi, wi in zip(values, weights):
        means.append(yi)
        wts.append(wi)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1] + 1e-15:
            m2, w2, c2 = means.pop(), wts.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wts.pop(), counts.pop()
            wt = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt)
            wts.append(wt)
            counts.append(c1 + c2)
    out: List[float] = []
    for m, c in zip(means, counts):
        out.extend([m] * c)
    return out


def isotonic_nonincreasing(
    values: Sequence[float], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Weighted L2 projection onto non-increasing sequences."""
    flipped = isotonic_nondecreasing(
        -np.asarray(values, dtype=float), weights
    )
    return -flipped


def fit_beta_tail(
    normalized_delays: Sequence[float],
    lo: float | None = None,
    hi: float | None = None,
) -> Tuple[float, float, float, float]:
    """Fit ``(a, b, lo, hi)`` of a Beta delay body to delay samples.

    Moment-matched starting point refined by Nelder-Mead on the
    squared error between empirical and model survival curves over a
    ratio grid.  Support bounds default to the sample min/max (padded
    slightly so the extremes have non-zero density).
    """
    d = np.asarray(normalized_delays, dtype=float)
    if len(d) < 10:
        raise ValueError("need at least 10 delay samples to fit")
    lo_v = float(d.min()) * 0.999 if lo is None else float(lo)
    hi_v = min(1.0, float(d.max()) * 1.001 + 1e-9) if hi is None else float(hi)
    if hi_v <= lo_v:
        raise ValueError("degenerate delay support")
    x = np.clip((d - lo_v) / (hi_v - lo_v), 1e-9, 1 - 1e-9)

    mean, var = float(np.mean(x)), float(np.var(x))
    var = max(var, 1e-6)
    common = mean * (1 - mean) / var - 1.0
    a0 = max(0.05, mean * common)
    b0 = max(0.05, (1 - mean) * common)

    grid = np.linspace(0.0, 1.0, 41)
    emp_sf = np.array([(x > g).mean() for g in grid])

    from scipy.stats import beta as beta_dist

    def loss(params: np.ndarray) -> float:
        a, b = params
        if a <= 0 or b <= 0 or a > 500 or b > 500:
            return 1e9
        return float(np.sum((beta_dist.sf(grid, a, b) - emp_sf) ** 2))

    from scipy.optimize import minimize

    res = minimize(loss, x0=np.array([a0, b0]), method="Nelder-Mead")
    a, b = (float(v) for v in res.x)
    return a, b, lo_v, hi_v
