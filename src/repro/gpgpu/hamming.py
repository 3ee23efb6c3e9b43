"""Hamming-distance analysis of VALU output streams (Fig. 5.10).

The paper's argument: if the successive-output Hamming-distance
histograms of the 16 VALUs are near-identical, their switching
activity -- and with it the trend of path-sensitisation delays and
error probabilities -- is homogeneous, so per-core timing speculation
suffices on this architecture and SynTS is not needed.

This module computes those histograms and quantifies their pairwise
similarity with total-variation distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .radeon import VALUTrace

__all__ = [
    "successive_hamming",
    "hamming_histogram",
    "total_variation",
    "VALUAnalysis",
    "analyze_valus",
]

WORD_BITS = 32

#: Set bits of every byte value, for a table-lookup popcount.
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def successive_hamming(outputs: np.ndarray) -> np.ndarray:
    """Hamming distance between consecutive 32-bit outputs."""
    x = np.asarray(outputs, dtype=np.uint32)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a 1-D stream of at least 2 outputs")
    diff = np.bitwise_xor(x[1:], x[:-1])
    # popcount of each word: one table lookup per byte, the four byte
    # columns added (at most 32, so uint8 cannot overflow); ~3x faster
    # than summing a 32-wide unpacked bit matrix per word
    counts = _BYTE_POPCOUNT[diff.view(np.uint8)].reshape(-1, 4)
    total = counts[:, 0] + counts[:, 1] + counts[:, 2] + counts[:, 3]
    # np.uint: the dtype numpy's sum of a uint8 array has always had
    return total.astype(np.uint)


def hamming_histogram(outputs: np.ndarray) -> np.ndarray:
    """Normalised histogram over distances 0..32 (length 33)."""
    return _normalised_histogram(successive_hamming(outputs))


def _normalised_histogram(distances: np.ndarray) -> np.ndarray:
    counts = np.bincount(distances, minlength=WORD_BITS + 1).astype(float)
    return counts / counts.sum()


def total_variation(h1: np.ndarray, h2: np.ndarray) -> float:
    """Total-variation distance between two histograms (0 = equal)."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ValueError("histogram shapes differ")
    return float(0.5 * np.abs(h1 - h2).sum())


@dataclass(frozen=True)
class VALUAnalysis:
    """Homogeneity analysis across a SIMD unit's VALUs.

    Attributes
    ----------
    histograms:
        Per-lane normalised Hamming histograms, shape (lanes, 33).
    mean_distance:
        Per-lane mean successive Hamming distance.
    max_pairwise_tv:
        Largest total-variation distance between any two lanes'
        histograms.
    homogeneity_threshold:
        The TV bound under which the suite is declared homogeneous.
    """

    histograms: np.ndarray
    mean_distance: np.ndarray
    max_pairwise_tv: float
    homogeneity_threshold: float

    @property
    def n_lanes(self) -> int:
        return int(self.histograms.shape[0])

    @property
    def is_homogeneous(self) -> bool:
        """The paper's GPGPU verdict: per-core TS suffices."""
        return self.max_pairwise_tv <= self.homogeneity_threshold


def analyze_valus(
    traces: Sequence[VALUTrace],
    homogeneity_threshold: float = 0.10,
) -> VALUAnalysis:
    """Compute Fig. 5.10's histograms and the homogeneity verdict."""
    if len(traces) < 2:
        raise ValueError("need at least two VALU traces to compare")
    distances = [successive_hamming(t.outputs) for t in traces]
    hists = np.stack([_normalised_histogram(hd) for hd in distances])
    means = np.array([hd.mean() for hd in distances])
    max_tv = 0.0
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            max_tv = max(max_tv, total_variation(hists[i], hists[j]))
    return VALUAnalysis(
        histograms=hists,
        mean_distance=means,
        max_pairwise_tv=max_tv,
        homogeneity_threshold=homogeneity_threshold,
    )
