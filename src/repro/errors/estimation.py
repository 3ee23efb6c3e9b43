"""Sampling-based online error-probability estimation (paper Sec. 4.3).

At the start of each barrier interval every thread runs its first
``n_samp`` instructions in a *sampling phase*: ``n_samp / S``
instructions at each of the ``S`` available TSR levels, all at a fixed
voltage ``V_samp``.  Razor error detection counts the timing errors at
each level, giving a Binomial estimate of ``err(r)`` per level; the
estimates are isotonically projected onto the required non-increasing
shape and linearly interpolated.

This module holds the phase's schedule and its per-thread record;
:func:`repro.core.online.sample_interval` runs the phase for every
thread of an interval at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SamplingPlan", "SamplingRecord"]


@dataclass(frozen=True)
class SamplingPlan:
    """How a sampling phase is scheduled (the paper's Fig. 4.7 knobs).

    Attributes
    ----------
    ratios:
        The S TSR levels visited, in visit order.
    n_samp:
        Total instructions spent sampling (split evenly: the paper's
        ``N_samp / S`` per level; remainders go to the earliest
        levels).
    v_samp:
        Supply voltage during sampling (paper: the nominal voltage).
    """

    ratios: Tuple[float, ...]
    n_samp: int
    v_samp: float = 1.0

    def __post_init__(self):
        if len(self.ratios) < 2:
            raise ValueError("sampling needs at least two TSR levels")
        if self.n_samp < len(self.ratios):
            raise ValueError("n_samp smaller than the number of levels")

    def instructions_per_level(self) -> np.ndarray:
        """Even split of ``n_samp`` over the levels."""
        s = len(self.ratios)
        base, extra = divmod(self.n_samp, s)
        return np.array([base + (1 if i < extra else 0) for i in range(s)])


@dataclass(frozen=True)
class SamplingRecord:
    """Outcome of one thread's sampling phase.

    ``errors[k]`` timing errors were observed among
    ``instructions[k]`` instructions at ``plan.ratios[k]``.
    """

    plan: SamplingPlan
    instructions: np.ndarray
    errors: np.ndarray

    @property
    def raw_estimates(self) -> np.ndarray:
        return self.errors / np.maximum(self.instructions, 1)

    def total_instructions(self) -> int:
        return int(self.instructions.sum())

    def total_errors(self) -> int:
        return int(self.errors.sum())

