"""Instruction-level simulation of the online SynTS controller.

This closes the loop at the lowest level: unlike
:mod:`repro.core.online` (which draws Binomial error counts from the
analytic error functions), this simulator *executes* the sampling
phase instruction-by-instruction -- each thread's first ``n_samp``
trace instructions run at the S ratio levels with real Razor error
detection -- then estimates, decides with SynTS-Poly, and executes the
rest of the trace at the chosen points.

The paper's hardware would behave exactly like this; agreement with
the analytic controller (asserted in the test suite) validates both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import PlatformConfig, ThreadParams
from repro.core.online import OnlineKnobs
from repro.core.poly import SynTSSolution, solve_synts_poly
from repro.core.problem import SynTSProblem
from repro.errors.estimation import SamplingPlan
from repro.errors.fitting import isotonic_nonincreasing
from repro.errors.probability import TabulatedErrorFunction

from .pipeline import CoreResult, execute_trace
from .trace import InstructionTrace, trace_for_thread

__all__ = ["SimulatedOnlineOutcome", "simulate_online_interval"]


@dataclass(frozen=True)
class SimulatedOnlineOutcome:
    """Instruction-level outcome of one online barrier interval."""

    estimates: Tuple[TabulatedErrorFunction, ...]
    sampling_times: Tuple[float, ...]
    sampling_energies: Tuple[float, ...]
    decision: SynTSSolution
    core_results: Tuple[CoreResult, ...]
    texec: float
    total_energy: float

    @property
    def edp(self) -> float:
        return self.total_energy * self.texec


def _sample_phase(
    trace: InstructionTrace,
    n_samp: int,
    v_samp: float,
    config: PlatformConfig,
) -> Tuple[TabulatedErrorFunction, float, float]:
    """Execute the sampling schedule on the head of a trace.

    Returns (estimate, time, energy) for the phase: ``n_samp / S``
    instructions at each TSR level, at ``v_samp`` (paper Fig. 4.7).
    """
    ratios = np.asarray(config.tsr_levels, dtype=float)
    counts = SamplingPlan(
        tuple(config.tsr_levels), n_samp, v_samp
    ).instructions_per_level()
    tnom_s = config.tnom(v_samp)
    penalty = int(round(config.c_penalty))

    # one batched pass over the whole sampling window: each
    # instruction's Razor threshold is its level's TSR ratio
    # (Razor detects whenever the sensitised delay exceeds it)
    head_delays = np.asarray(trace.delays[:n_samp], dtype=float)
    head_cycles = np.asarray(trace.base_cycles[:n_samp])
    bounds = np.concatenate(([0], np.cumsum(counts)))
    thresholds = np.repeat(ratios, counts)
    error_mask = head_delays > thresholds

    err_csum = np.concatenate(([0], np.cumsum(error_mask)))
    cyc_csum = np.concatenate(([0], np.cumsum(head_cycles)))
    errors = (err_csum[bounds[1:]] - err_csum[bounds[:-1]]).astype(int)
    cycles = (
        cyc_csum[bounds[1:]] - cyc_csum[bounds[:-1]]
    ).astype(int) + penalty * errors

    time = float(np.sum(cycles * ratios * tnom_s))
    energy = float(np.sum(config.alpha * v_samp**2 * cycles))
    rates = errors / np.maximum(1, counts)

    projected = isotonic_nonincreasing(rates, weights=counts)
    estimate = TabulatedErrorFunction(ratios, projected)
    return estimate, time, energy


def simulate_online_interval(
    threads: Sequence[ThreadParams],
    theta: float,
    config: Optional[PlatformConfig] = None,
    knobs: Optional[OnlineKnobs] = None,
    seed: int = 0,
    traces: Optional[Sequence[InstructionTrace]] = None,
) -> SimulatedOnlineOutcome:
    """Full instruction-level online run of one barrier interval."""
    cfg = config or PlatformConfig()
    knobs = knobs or OnlineKnobs()
    rng = np.random.default_rng(seed)
    v_samp = knobs.v_samp if knobs.v_samp is not None else cfg.voltages[0]

    if traces is None:
        traces = [trace_for_thread(t, rng) for t in threads]
    elif len(traces) != len(threads):
        raise ValueError("need one trace per thread")

    estimates: List[TabulatedErrorFunction] = []
    s_times: List[float] = []
    s_energies: List[float] = []
    budgets: List[int] = []
    for thread, trace in zip(threads, traces):
        n_samp = knobs.budget_for(trace.n_instructions, cfg.n_tsr)
        budgets.append(n_samp)
        est, t_s, e_s = _sample_phase(trace, n_samp, v_samp, cfg)
        estimates.append(est)
        s_times.append(t_s)
        s_energies.append(e_s)

    remaining_threads = tuple(
        ThreadParams(
            n_instructions=max(1, tr.n_instructions - b),
            cpi_base=th.cpi_base,
            err=est,
        )
        for th, tr, b, est in zip(threads, traces, budgets, estimates)
    )
    decision = solve_synts_poly(
        SynTSProblem(config=cfg, threads=remaining_threads), theta
    )

    results: List[CoreResult] = []
    for i, (trace, b) in enumerate(zip(traces, budgets)):
        rest = trace.slice(b)
        results.append(execute_trace(rest, decision.assignment.points[i], cfg))

    thread_times = [s + r.time for s, r in zip(s_times, results)]
    texec = max(thread_times)
    total_energy = sum(s_energies) + sum(r.energy for r in results)
    return SimulatedOnlineOutcome(
        estimates=tuple(estimates),
        sampling_times=tuple(s_times),
        sampling_energies=tuple(s_energies),
        decision=decision,
        core_results=tuple(results),
        texec=texec,
        total_energy=total_energy,
    )
