"""Brute-force reference solver for SynTS-OPT.

Exhaustively enumerates all ``(Q*S)^M`` assignments.  Exponential --
only for validating SynTS-Poly and SynTS-MILP on small instances in
the test suite (Lemma 4.2.1 checked by construction).
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from .poly import SynTSSolution
from .problem import SynTSProblem, check_theta

__all__ = ["solve_synts_brute"]


def solve_synts_brute(
    problem: SynTSProblem, theta: float, max_assignments: int = 2_000_000
) -> SynTSSolution:
    """Exact solution by enumeration (test oracle)."""
    check_theta(theta)
    cfg = problem.config
    m = problem.n_threads
    q, s = cfg.n_voltages, cfg.n_tsr
    n_configs = q * s
    total = n_configs**m
    if total > max_assignments:
        raise ValueError(
            f"{total} assignments exceed the brute-force budget "
            f"({max_assignments}); use solve_synts_poly"
        )
    times = problem.time_table.reshape(m, -1)
    energies = problem.energy_table.reshape(m, -1)

    best_cost = np.inf
    best_flat: Tuple[int, ...] | None = None
    for combo in itertools.product(range(n_configs), repeat=m):
        texec = max(times[i, f] for i, f in enumerate(combo))
        en = sum(energies[i, f] for i, f in enumerate(combo))
        cost = en + theta * texec
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_flat = combo

    assert best_flat is not None
    return SynTSSolution.at(problem, [divmod(f, s) for f in best_flat], theta)
