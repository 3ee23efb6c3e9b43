"""Benchmark-level runners: offline and online, over barrier intervals.

The paper evaluates each scheme over (up to) three barrier intervals
per benchmark; totals are the per-interval sums, and EDP is computed
on the totals.  These runners hold that accounting in one place so the
experiment drivers and the test suite agree on it.

The per-interval steps (:func:`run_offline_interval`,
:func:`repro.core.online.run_online_interval`) are exactly what the
experiment engine's cells execute, so the in-process runners here and
an engine fan-out (:func:`run_benchmark_cells`) are two schedules of
the same accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.model import Benchmark

from .model import PlatformConfig
from .online import IntervalOutcome, OnlineKnobs, run_online_interval
from .poly import SynTSSolution, solve_synts_poly
from .problem import SynTSProblem, problem_from_interval

__all__ = [
    "BenchmarkRun",
    "OnlineBenchmarkRun",
    "interval_problems",
    "run_offline_interval",
    "run_offline_benchmark",
    "run_online_benchmark",
    "run_benchmark_cells",
]


@dataclass(frozen=True)
class BenchmarkRun:
    """Totals of an offline scheme over a benchmark's intervals."""

    benchmark: str
    stage: str
    scheme: str
    solutions: Tuple[SynTSSolution, ...]
    total_energy: float
    total_time: float

    @property
    def edp(self) -> float:
        return self.total_energy * self.total_time


@dataclass(frozen=True)
class OnlineBenchmarkRun:
    """Totals of the online controller over a benchmark's intervals."""

    benchmark: str
    stage: str
    outcomes: Tuple[IntervalOutcome, ...]
    total_energy: float
    total_time: float

    @property
    def edp(self) -> float:
        return self.total_energy * self.total_time


def interval_problems(
    benchmark: Benchmark,
    stage: str,
    config: Optional[PlatformConfig] = None,
) -> List[SynTSProblem]:
    """One optimisation instance per barrier interval."""
    cfg = config or PlatformConfig()
    return [
        problem_from_interval(iv, stage, cfg) for iv in benchmark.intervals
    ]


def run_offline_interval(
    problem: SynTSProblem,
    theta: float,
    solver: Callable[[SynTSProblem, float], SynTSSolution],
) -> SynTSSolution:
    """One barrier interval under one offline solver (a single cell)."""
    return solver(problem, theta)


def run_offline_benchmark(
    benchmark: Benchmark,
    stage: str,
    theta: float,
    solver: Callable[[SynTSProblem, float], SynTSSolution],
    scheme: str = "synts",
    config: Optional[PlatformConfig] = None,
) -> BenchmarkRun:
    """Apply an offline solver interval-by-interval and total up."""
    solutions = []
    energy = 0.0
    time = 0.0
    for problem in interval_problems(benchmark, stage, config):
        sol = run_offline_interval(problem, theta, solver)
        solutions.append(sol)
        energy += sol.evaluation.total_energy
        time += sol.evaluation.texec
    return BenchmarkRun(
        benchmark=benchmark.name,
        stage=stage,
        scheme=scheme,
        solutions=tuple(solutions),
        total_energy=energy,
        total_time=time,
    )


def run_online_benchmark(
    benchmark: Benchmark,
    stage: str,
    theta: float,
    rng: np.random.Generator,
    knobs: Optional[OnlineKnobs] = None,
    config: Optional[PlatformConfig] = None,
) -> OnlineBenchmarkRun:
    """Run the online controller over every barrier interval."""
    outcomes = []
    energy = 0.0
    time = 0.0
    for problem in interval_problems(benchmark, stage, config):
        outcome = run_online_interval(problem, theta, rng, knobs)
        outcomes.append(outcome)
        energy += outcome.total_energy
        time += outcome.texec
    return OnlineBenchmarkRun(
        benchmark=benchmark.name,
        stage=stage,
        outcomes=tuple(outcomes),
        total_energy=energy,
        total_time=time,
    )


def run_benchmark_cells(
    benchmark: str,
    stage: str,
    scheme: str,
    engine=None,
    **knobs,
):
    """Benchmark totals via the experiment engine (cached, parallel).

    The cell-based twin of :func:`run_offline_benchmark` /
    :func:`run_online_benchmark` for *named* SPLASH-2 benchmarks at
    the equal-weight (or an explicit ``theta=``) objective: interval
    cells are deduplicated against the session cache and run on the
    engine's backend.  Returns
    :class:`repro.engine.cells.BenchmarkTotals`.
    """
    # imported lazily: repro.core must stay importable without the
    # engine package (which itself builds on repro.core)
    from repro.engine import benchmark_specs, get_engine, totalize

    eng = engine or get_engine()
    specs = benchmark_specs(benchmark, stage, scheme, **knobs)
    return totalize(eng.run_cells(list(specs)))
