"""System model (paper Section 4.1, Equations 4.1-4.3).

A multi-core processor with ``M`` homogeneous cores runs one thread
per core.  Core ``i`` operates at voltage ``V_i`` (one of Q discrete
levels, each with a nominal error-free clock period ``tnom(V)``) and a
timing-speculation ratio ``r_i`` (one of S discrete levels), giving a
clock period ``t_clk_i = r_i * tnom(V_i)``.

* seconds per instruction  (Eq. 4.1):
  ``SPI_i = t_clk_i * (p_err_i * C_penalty + CPI_i)``
* barrier execution time   (Eq. 4.2):
  ``t_exec = max_i N_i * SPI_i``
* per-thread energy        (Eq. 4.3):
  ``en_i = alpha * V_i^2 * N_i * (p_err_i * C_penalty + CPI_i)``

All periods are in units of the Vdd = 1.0 V nominal clock period; the
absolute scale cancels in every reported (normalised) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.circuit.voltage import TABLE_5_1
from repro.errors.probability import ErrorFunction

__all__ = [
    "DEFAULT_TSR_LEVELS",
    "OperatingPoint",
    "PlatformConfig",
    "ThreadParams",
    "Assignment",
    "Evaluation",
    "effective_cpi",
    "thread_time",
    "thread_energy",
    "evaluate_assignment",
]

#: Six clock periods, fractions r in [0.64, 1] of nominal (Sec. 6.2).
DEFAULT_TSR_LEVELS: Tuple[float, ...] = tuple(
    float(r) for r in np.linspace(0.64, 1.0, 6)
)


@dataclass(frozen=True)
class OperatingPoint:
    """One core's chosen (voltage, timing-speculation ratio)."""

    voltage: float
    tsr: float

    def clock_period(self, config: "PlatformConfig") -> float:
        return self.tsr * config.tnom(self.voltage)


@dataclass(frozen=True)
class PlatformConfig:
    """The platform's discrete V/F capabilities and Razor parameters.

    Attributes
    ----------
    voltages:
        The Q voltage levels (descending; paper Table 5.1).
    tnom_table:
        Voltage -> nominal clock-period multiplier.
    tsr_levels:
        The S timing-speculation ratios (ascending, last = 1.0).
    c_penalty:
        Razor replay penalty in cycles (paper: 5).
    alpha:
        Average switching capacitance (energy scale; cancels in
        normalised results).
    leakage:
        Static-power coefficient -- the extension the paper calls out
        ("the model does not currently account for leakage power, [but]
        can be easily extended to do so", Sec. 4.1).  A thread running
        for time ``t`` at voltage ``V`` additionally dissipates
        ``leakage * alpha * V * t``: leakage power scales ~linearly
        with supply in the near-threshold regime.  Defaults to 0,
        which reproduces the paper's switching-only model exactly.
    """

    voltages: Tuple[float, ...] = tuple(sorted(TABLE_5_1, reverse=True))
    tnom_table: Mapping[float, float] = field(
        default_factory=lambda: dict(TABLE_5_1)
    )
    tsr_levels: Tuple[float, ...] = DEFAULT_TSR_LEVELS
    c_penalty: float = 5.0
    alpha: float = 1.0
    leakage: float = 0.0

    def __post_init__(self):
        if not self.voltages:
            raise ValueError("need at least one voltage level")
        for v in self.voltages:
            if v not in self.tnom_table:
                raise ValueError(f"voltage {v} missing from tnom table")
        if not self.tsr_levels:
            raise ValueError("need at least one TSR level")
        if any(not (0.0 < r <= 1.0) for r in self.tsr_levels):
            raise ValueError("TSR levels must lie in (0, 1]")
        if abs(max(self.tsr_levels) - 1.0) > 1e-9:
            raise ValueError("the highest TSR level must be 1.0 (paper: R_S = 1)")
        if self.c_penalty < 0:
            raise ValueError("c_penalty must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.leakage < 0:
            raise ValueError("leakage must be non-negative")

    def tnom(self, voltage: float) -> float:
        try:
            return self.tnom_table[voltage]
        except KeyError:
            raise KeyError(
                f"voltage {voltage} is not an operating level; "
                f"levels: {self.voltages}"
            ) from None

    @property
    def n_voltages(self) -> int:
        return len(self.voltages)

    @property
    def n_tsr(self) -> int:
        return len(self.tsr_levels)

    def nominal_point(self) -> OperatingPoint:
        """Highest voltage, no speculation -- the Nominal baseline."""
        return OperatingPoint(voltage=self.voltages[0], tsr=1.0)

    @cached_property
    def point_grid(self) -> Tuple[Tuple[OperatingPoint, ...], ...]:
        """``point_grid[j][k]`` is (V_j, R_k), built once per config."""
        return tuple(
            tuple(OperatingPoint(v, r) for r in self.tsr_levels)
            for v in self.voltages
        )

    def operating_points(self):
        """All (voltage, tsr) combinations, index order (j, k)."""
        return [p for row in self.point_grid for p in row]

    def restrict_tsr(self, levels: Sequence[float]) -> "PlatformConfig":
        """A copy restricted to the given TSR levels (used by No-TS).

        Built once per config and levels tuple, like ``point_grid``:
        the problems of a stage share one config, so they share one
        r = 1 slice config too.
        """
        levels = tuple(levels)
        memo = self.__dict__.setdefault("_restricted", {})
        if levels not in memo:
            memo[levels] = PlatformConfig(
                voltages=self.voltages,
                tnom_table=dict(self.tnom_table),
                tsr_levels=levels,
                c_penalty=self.c_penalty,
                alpha=self.alpha,
                leakage=self.leakage,
            )
        return memo[levels]


@dataclass(frozen=True)
class ThreadParams:
    """One thread's inputs to the optimisation, per barrier interval."""

    n_instructions: int
    cpi_base: float
    err: ErrorFunction

    def __post_init__(self):
        if self.n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        if self.cpi_base <= 0:
            raise ValueError("cpi_base must be positive")


def effective_cpi(
    p_err: float, c_penalty: float, cpi_base: float
) -> float:
    """Cycles per instruction including Razor replay (Eq. 4.1 core)."""
    return p_err * c_penalty + cpi_base


def thread_time(
    thread: ThreadParams, point: OperatingPoint, config: PlatformConfig
) -> float:
    """Thread completion time ``N_i * SPI_i`` (Eq. 4.2 term)."""
    p = float(thread.err(point.tsr))
    cpi = effective_cpi(p, config.c_penalty, thread.cpi_base)
    return thread.n_instructions * point.clock_period(config) * cpi


def thread_energy(
    thread: ThreadParams, point: OperatingPoint, config: PlatformConfig
) -> float:
    """Thread energy (Eq. 4.3, plus the optional leakage extension).

    Switching: ``alpha * V^2 * N_i * cycles``.  Leakage (when
    ``config.leakage > 0``): static power ``leakage * alpha * V``
    integrated over the thread's active time.
    """
    p = float(thread.err(point.tsr))
    cpi = effective_cpi(p, config.c_penalty, thread.cpi_base)
    switching = config.alpha * point.voltage**2 * thread.n_instructions * cpi
    if config.leakage == 0.0:
        return switching
    active_time = thread.n_instructions * point.clock_period(config) * cpi
    static = config.leakage * config.alpha * point.voltage * active_time
    return switching + static


@dataclass(frozen=True)
class Assignment:
    """Per-thread operating points (the optimiser's decision)."""

    points: Tuple[OperatingPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("assignment must cover at least one thread")

    @property
    def n_threads(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Evaluation:
    """Energy/time outcome of an assignment on one barrier interval."""

    energies: Tuple[float, ...]
    times: Tuple[float, ...]

    @property
    def total_energy(self) -> float:
        return sum(self.energies)

    @property
    def texec(self) -> float:
        """Barrier execution time: the last thread to arrive (Eq. 4.2)."""
        return max(self.times)

    def cost(self, theta: float) -> float:
        """The weighted objective of Eq. 4.4."""
        return self.total_energy + theta * self.texec

    @property
    def edp(self) -> float:
        """Energy-delay product of the interval."""
        return self.total_energy * self.texec


def evaluate_assignment(
    threads: Sequence[ThreadParams],
    assignment: Assignment,
    config: PlatformConfig,
) -> Evaluation:
    """Evaluate Eqs. 4.2-4.3 for an assignment."""
    if len(threads) != assignment.n_threads:
        raise ValueError(
            f"assignment covers {assignment.n_threads} threads, "
            f"workload has {len(threads)}"
        )
    energies = tuple(
        thread_energy(t, p, config) for t, p in zip(threads, assignment.points)
    )
    times = tuple(
        thread_time(t, p, config) for t, p in zip(threads, assignment.points)
    )
    return Evaluation(energies=energies, times=times)
