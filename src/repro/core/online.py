"""Online SynTS controller (paper Section 4.3).

At each barrier interval the controller:

1. runs every thread's first ``n_samp`` instructions in a sampling
   phase -- ``n_samp / S`` instructions at each TSR level, at a fixed
   sampling voltage (paper: the nominal voltage) -- tallying Razor
   error counts per level;
2. turns the counts into estimated error functions (isotonic
   projection + interpolation);
3. feeds the estimates to SynTS-Poly to pick per-thread (V, r) for the
   *remaining* instructions of the interval;
4. pays the true cost: execution uses the *actual* error functions at
   the chosen points, so estimation error shows up as lost energy/time
   exactly as it would in hardware.

The overheads the paper attributes to online operation -- imperfect
estimates plus sampling at sub-optimal V/f -- are therefore both
modelled mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors.estimation import (
    SamplingPlan,
    SamplingRecord,
    estimate_error_function,
)
from repro.errors.probability import ErrorFunction, TabulatedErrorFunction

from .model import Evaluation, PlatformConfig, ThreadParams
from .poly import SynTSSolution, solve_synts_poly
from .problem import SynTSProblem

__all__ = ["OnlineKnobs", "IntervalOutcome", "run_online_interval"]


@dataclass(frozen=True)
class OnlineKnobs:
    """Tunables of the online scheme.

    Attributes
    ----------
    sampling_fraction:
        Fraction of each thread's interval instructions spent sampling
        (paper: 10 %).
    n_samp:
        Absolute override of the sampling budget (paper: 50K
        instructions; 10K for short-interval FMM).  When set it is
        still clamped to half the interval.
    v_samp:
        Sampling-phase supply voltage; ``None`` selects the nominal
        (highest) level, as in the paper.
    """

    sampling_fraction: float = 0.10
    n_samp: Optional[int] = None
    v_samp: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.sampling_fraction < 1.0):
            raise ValueError("sampling_fraction must be in (0, 1)")
        if self.n_samp is not None and self.n_samp < 1:
            raise ValueError("n_samp must be positive")

    def budget_for(self, n_instructions: int, n_levels: int) -> int:
        raw = (
            self.n_samp
            if self.n_samp is not None
            else int(round(self.sampling_fraction * n_instructions))
        )
        return int(min(max(raw, n_levels), n_instructions // 2))


@dataclass(frozen=True)
class IntervalOutcome:
    """Everything the controller did in one barrier interval."""

    estimates: Tuple[TabulatedErrorFunction, ...]
    records: Tuple[SamplingRecord, ...]
    sampling_times: Tuple[float, ...]
    sampling_energies: Tuple[float, ...]
    decision: SynTSSolution
    remaining_evaluation: Evaluation
    theta: float

    @property
    def thread_times(self) -> Tuple[float, ...]:
        """Per-thread completion time: sampling + remaining phases."""
        return tuple(
            s + r
            for s, r in zip(self.sampling_times, self.remaining_evaluation.times)
        )

    @property
    def texec(self) -> float:
        """Barrier time including the sampling phase."""
        return max(self.thread_times)

    @property
    def total_energy(self) -> float:
        return sum(self.sampling_energies) + self.remaining_evaluation.total_energy

    def cost(self) -> float:
        return self.total_energy + self.theta * self.texec


def _sampling_overheads(
    thread: ThreadParams,
    plan: SamplingPlan,
    config: PlatformConfig,
) -> Tuple[float, float]:
    """Actual time and energy the sampling phase costs one thread.

    The thread really executes those instructions (they are work, not
    waste) at the sampling voltage across the S levels, suffering the
    true error rates and their replay penalties.
    """
    counts = plan.instructions_per_level()
    ratios = np.asarray(plan.ratios, dtype=float)
    tnom_s = config.tnom(plan.v_samp)
    # batched over the S levels (identical accounting to the scalar
    # per-level recurrence)
    p = np.clip(thread.err.curve(ratios), 0.0, 1.0)
    cpi = p * config.c_penalty + thread.cpi_base
    chunk_times = counts * ratios * tnom_s * cpi
    time = float(np.sum(chunk_times))
    energy = float(np.sum(config.alpha * plan.v_samp**2 * counts * cpi))
    if config.leakage:
        energy += float(
            np.sum(config.leakage * config.alpha * plan.v_samp * chunk_times)
        )
    return time, energy


def run_online_interval(
    problem: SynTSProblem,
    theta: float,
    rng: np.random.Generator,
    knobs: OnlineKnobs | None = None,
) -> IntervalOutcome:
    """Run the full online procedure on one barrier interval.

    ``problem`` carries the *true* error functions; the controller
    only ever sees the sampled estimates, as in hardware.
    """
    knobs = knobs or OnlineKnobs()
    cfg = problem.config
    v_samp = knobs.v_samp if knobs.v_samp is not None else cfg.voltages[0]
    if v_samp not in cfg.tnom_table:
        raise ValueError(f"v_samp {v_samp} is not a platform voltage level")

    estimates: List[TabulatedErrorFunction] = []
    records: List[SamplingRecord] = []
    s_times: List[float] = []
    s_energies: List[float] = []
    remaining: List[ThreadParams] = []

    for thread in problem.threads:
        n_samp = knobs.budget_for(thread.n_instructions, cfg.n_tsr)
        plan = SamplingPlan(
            ratios=tuple(cfg.tsr_levels), n_samp=n_samp, v_samp=v_samp
        )
        estimate, record = estimate_error_function(thread.err, plan, rng)
        t_s, e_s = _sampling_overheads(thread, plan, cfg)
        estimates.append(estimate)
        records.append(record)
        s_times.append(t_s)
        s_energies.append(e_s)
        remaining.append(
            ThreadParams(
                n_instructions=max(1, thread.n_instructions - n_samp),
                cpi_base=thread.cpi_base,
                err=estimate,
            )
        )

    estimated_problem = SynTSProblem(config=cfg, threads=tuple(remaining))
    decision = solve_synts_poly(estimated_problem, theta)

    # Execute the remainder at the chosen points under the TRUE errors.
    actual_threads = tuple(
        ThreadParams(
            n_instructions=rt.n_instructions,
            cpi_base=rt.cpi_base,
            err=orig.err,
        )
        for rt, orig in zip(remaining, problem.threads)
    )
    actual_problem = SynTSProblem(config=cfg, threads=actual_threads)
    remaining_eval = actual_problem.evaluate_indices(decision.indices)

    return IntervalOutcome(
        estimates=tuple(estimates),
        records=tuple(records),
        sampling_times=tuple(s_times),
        sampling_energies=tuple(s_energies),
        decision=decision,
        remaining_evaluation=remaining_eval,
        theta=theta,
    )
