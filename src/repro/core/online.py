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
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors.estimation import SamplingPlan, SamplingRecord
from repro.errors.fitting import pava
from repro.errors.probability import TabulatedErrorFunction

from .model import Evaluation
from .poly import SynTSSolution, _batch_inputs, solve_synts_stack
from .problem import SynTSProblem, cost_tables

__all__ = [
    "OnlineKnobs",
    "IntervalOutcome",
    "run_online_batch",
    "run_online_interval",
]


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
    """Everything the controller did in one barrier interval.

    ``estimated_rates[i, k]``: thread i's projected error rate at TSR
    level k, interpolated into :attr:`estimates` on first access.
    """

    records: Tuple[SamplingRecord, ...]
    estimated_rates: np.ndarray
    sampling_times: Tuple[float, ...]
    sampling_energies: Tuple[float, ...]
    decision: SynTSSolution
    remaining_evaluation: Evaluation
    theta: float

    @cached_property
    def estimates(self) -> Tuple[TabulatedErrorFunction, ...]:
        """Per-thread estimated error functions."""
        return tuple(
            TabulatedErrorFunction(record.plan.ratios, rates)
            for record, rates in zip(self.records, self.estimated_rates)
        )

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


def run_online_interval(
    problem: SynTSProblem,
    theta: float,
    rng: np.random.Generator,
    knobs: OnlineKnobs | None = None,
) -> IntervalOutcome:
    """Run the full online procedure on one barrier interval (a
    one-interval :func:`run_online_batch` call)."""
    return run_online_batch([problem], [theta], [rng], [knobs])[0]


def _sample(
    problem: SynTSProblem, rng: np.random.Generator, knobs: OnlineKnobs
) -> Tuple[Tuple[SamplingRecord, ...], np.ndarray, np.ndarray]:
    """One interval's sampling phase: records, (M, S) instruction
    counts and (M, S) projected error rates.  Razor counts Binomial
    errors at the *true* rates in one (threads x levels) draw (the
    per-thread draws' stream); the observed rates are projected onto
    non-increasing in ``r``."""
    cfg = problem.config
    v_samp = knobs.v_samp if knobs.v_samp is not None else cfg.voltages[0]
    if v_samp not in cfg.tnom_table:
        raise ValueError(f"v_samp {v_samp} is not a platform voltage level")
    levels = tuple(cfg.tsr_levels)
    if len(set(levels)) < len(levels):
        raise ValueError(f"TSR levels {levels} must be distinct to sample")
    plans = [
        SamplingPlan(levels, knobs.budget_for(th.n_instructions, len(levels)), v_samp)
        for th in problem.threads
    ]
    counts = np.stack([plan.instructions_per_level() for plan in plans])
    errors = rng.binomial(counts, problem.error_rates)
    observed = (errors / np.maximum(counts, 1)).tolist()
    order = sorted(range(len(levels)), key=levels.__getitem__)
    rates = np.empty(counts.shape)
    for i, (raw, n) in enumerate(zip(observed, counts.tolist())):
        projected = pava([-raw[k] for k in order], [float(n[k]) for k in order])
        rates[i, order] = [-p for p in projected]
    records = tuple(map(SamplingRecord, plans, counts, errors))
    return records, counts, np.clip(rates, 0.0, 1.0)


def run_online_batch(
    problems: Sequence[SynTSProblem],
    thetas: Sequence[float],
    rngs: Sequence[np.random.Generator],
    knobs: Sequence[Optional[OnlineKnobs]],
) -> List[IntervalOutcome]:
    """Run the online procedure on many intervals, one outcome each.

    Cell b runs ``problems[b]`` (the *true* error functions) at
    ``thetas[b]`` with ``knobs[b]`` (``None``: defaults), drawing from
    ``rngs[b]``.  Sampling runs strictly in cell order, so cells
    sharing a generator draw the stream of one-interval calls.  Per
    group of cells sharing a config and thread count, one
    :func:`~repro.core.problem.cost_tables` call builds the estimated
    and true tables (at the TSR levels the interpolated estimate is
    exactly the projected rate), one :func:`solve_synts_stack` call
    decides on the estimates, and execution pays the true tables.
    """
    problems, thetas = _batch_inputs(problems, thetas)
    if not len(problems) == len(rngs) == len(knobs):
        raise ValueError(
            f"got {len(problems)} problems, {len(rngs)} generators "
            f"and {len(knobs)} knobs"
        )
    sampled = [
        _sample(problem, rng, k or OnlineKnobs())
        for problem, rng, k in zip(problems, rngs, knobs)
    ]
    groups: Dict[Tuple[int, int], List[int]] = {}
    for b, problem in enumerate(problems):
        groups.setdefault((id(problem.config), problem.n_threads), []).append(b)

    out: List[Optional[IntervalOutcome]] = [None] * len(problems)
    for members in groups.values():
        cfg = problems[members[0]].config
        records = [sampled[b][0] for b in members]
        counts, est_rates = (
            np.stack([sampled[b][i] for b in members]) for i in (1, 2)
        )  # (R, M, S)
        true_rates = np.stack([problems[b].error_rates for b in members])
        threads = [problems[b].threads for b in members]
        n_instr = np.asarray([[th.n_instructions for th in t] for t in threads])
        cpi_base = np.asarray([[th.cpi_base for th in t] for t in threads])
        # the controller executes the rest of each thread's interval
        remaining = np.maximum(n_instr - counts.sum(axis=-1), 1)
        times, energies = cost_tables(
            cfg, remaining, cpi_base, np.stack([est_rates, true_rates])
        )  # (2, R, M, Q, S): estimated, true
        n_rows, m = remaining.shape
        decisions = solve_synts_stack(
            times[0].reshape(n_rows, m, -1),
            energies[0].reshape(n_rows, m, -1),
            range(n_rows),
            [thetas[b] for b in members],
            [cfg.point_grid] * n_rows,
        )

        # sampling executes real work at v_samp under the true rates
        v_samp = [recs[0].plan.v_samp for recs in records]
        v_col = np.asarray(v_samp)[:, None, None]
        tnom_s = np.asarray([cfg.tnom(v) for v in v_samp])[:, None, None]
        v_squared = np.asarray([v**2 for v in v_samp])[:, None, None]  # not np.square
        cpi = true_rates * cfg.c_penalty + cpi_base[..., None]
        chunk_times = counts * np.asarray(cfg.tsr_levels) * tnom_s * cpi
        s_times = np.sum(chunk_times, axis=-1)
        s_energies = np.sum(cfg.alpha * v_squared * counts * cpi, axis=-1)
        if cfg.leakage:
            s_energies = s_energies + np.sum(
                cfg.leakage * cfg.alpha * v_col * chunk_times, axis=-1
            )

        for r, b in enumerate(members):
            j, k = zip(*decisions[r].indices)
            out[b] = IntervalOutcome(
                records=records[r],
                estimated_rates=est_rates[r],
                sampling_times=tuple(s_times[r].tolist()),
                sampling_energies=tuple(s_energies[r].tolist()),
                decision=decisions[r],
                remaining_evaluation=Evaluation(
                    energies=tuple(energies[1, r, range(m), j, k].tolist()),
                    times=tuple(times[1, r, range(m), j, k].tolist()),
                ),
                theta=thetas[b],
            )
    return out  # type: ignore[return-value]
