"""SynTS-OPT problem container and precomputed cost tables.

``SynTSProblem`` bundles a platform configuration with the per-thread
parameters of one barrier interval, and precomputes the time/energy
tables ``T[i, j, k]`` / ``E[i, j, k]`` (thread i at voltage level j and
TSR level k) that every solver -- SynTS-Poly, the MILP builder, the
brute-force reference and the baselines -- consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro.workloads.model import BarrierInterval

from .model import (
    Assignment,
    Evaluation,
    OperatingPoint,
    PlatformConfig,
    ThreadParams,
)

__all__ = [
    "SynTSProblem",
    "check_theta",
    "cost_tables",
    "problem_from_interval",
]


def check_theta(theta: float) -> None:
    """Raise ``ValueError`` unless ``theta`` is finite and >= 0.

    Every solver calls this first: a NaN or infinite Eq. 4.4 weight
    would otherwise cost every candidate as NaN or inf.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and non-negative, got {theta!r}")


def cost_tables(
    config: PlatformConfig,
    n_instructions: np.ndarray,
    cpi_base: np.ndarray,
    error_rates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``T/E[..., i, j, k]``: thread i at voltage j and TSR level k.

    Threads have (..., M) instruction counts and base CPIs and
    (..., M, S) error rates at ``config.tsr_levels``; leading axes
    stack problems sharing ``config``.  The broadcasting reproduces
    the scalar recurrence term for term (bit-identical values).
    """
    tsr = np.asarray(config.tsr_levels)  # (s,)
    volts = np.asarray(config.voltages)[:, None]  # (q, 1)
    tnoms = np.asarray([config.tnom(v) for v in config.voltages])  # (q,)
    cycles = n_instructions[..., None] * (
        error_rates * config.c_penalty + cpi_base[..., None]
    )  # (..., m, s)
    tclk = tsr[None, :] * tnoms[:, None]  # (q, s)
    times = cycles[..., None, :] * tclk  # (..., m, q, s)
    energies = config.alpha * volts**2 * cycles[..., None, :]
    if config.leakage:
        # static power integrated over the thread's time
        energies = energies + (
            config.leakage * config.alpha * volts * cycles[..., None, :] * tclk
        )
    return times, energies


@dataclass(frozen=True)
class SynTSProblem:
    """One barrier interval's optimisation instance."""

    config: PlatformConfig
    threads: Tuple[ThreadParams, ...]

    def __post_init__(self):
        if not self.threads:
            raise ValueError("need at least one thread")

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    # ------------------------------------------------------------------
    # precomputed tables
    # ------------------------------------------------------------------
    @cached_property
    def error_rates(self) -> np.ndarray:
        """(M, S) true error probability of each thread at each TSR
        level, clipped to [0, 1]."""
        tsr = np.asarray(self.config.tsr_levels)
        return np.stack(
            [np.clip(th.err.curve(tsr), 0.0, 1.0) for th in self.threads]
        )

    @cached_property
    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        return cost_tables(
            self.config,
            np.asarray([th.n_instructions for th in self.threads]),
            np.asarray([th.cpi_base for th in self.threads]),
            self.error_rates,
        )

    @property
    def time_table(self) -> np.ndarray:
        """``T[i, j, k]``: thread i's completion time at (V_j, R_k)."""
        return self._tables[0]

    @property
    def energy_table(self) -> np.ndarray:
        """``E[i, j, k]``: thread i's energy at (V_j, R_k)."""
        return self._tables[1]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def point(self, j: int, k: int) -> OperatingPoint:
        return self.config.point_grid[j][k]

    def assignment_from_indices(
        self, indices: Sequence[Tuple[int, int]]
    ) -> Assignment:
        grid = self.config.point_grid
        return Assignment(points=tuple(grid[j][k] for j, k in indices))

    def evaluate_indices(self, indices: Sequence[Tuple[int, int]]) -> Evaluation:
        t, e = self.time_table, self.energy_table
        times = tuple(float(t[i, j, k]) for i, (j, k) in enumerate(indices))
        energies = tuple(float(e[i, j, k]) for i, (j, k) in enumerate(indices))
        return Evaluation(energies=energies, times=times)

    def nominal_evaluation(self) -> Evaluation:
        """All threads at the highest voltage, r = 1 (Nominal baseline)."""
        j = 0
        k = self.config.n_tsr - 1
        return self.evaluate_indices([(j, k)] * self.n_threads)

    def equal_weight_theta(self) -> float:
        """Theta that weights energy and execution time equally, i.e.
        makes the two terms of Eq. 4.4 equal at the Nominal baseline
        (the convention used for the paper's Fig. 6.18)."""
        return self._equal_weight_theta

    @cached_property
    def _equal_weight_theta(self) -> float:
        ev = self.nominal_evaluation()
        return ev.total_energy / ev.texec

    def restrict_tsr(self, levels: Sequence[float]) -> "SynTSProblem":
        return SynTSProblem(
            config=self.config.restrict_tsr(levels), threads=self.threads
        )


def problem_from_interval(
    interval: BarrierInterval,
    stage: str,
    config: PlatformConfig | None = None,
) -> SynTSProblem:
    """Build the optimisation instance for one (interval, pipe stage)."""
    cfg = config or PlatformConfig()
    threads = tuple(
        ThreadParams(
            n_instructions=t.instructions,
            cpi_base=t.cpi_base,
            err=t.error_function(stage),
        )
        for t in interval.threads
    )
    return SynTSProblem(config=cfg, threads=threads)
