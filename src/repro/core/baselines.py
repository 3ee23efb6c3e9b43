"""The paper's comparison schemes (Section 6, bullet list).

* **Nominal** -- every core at the top voltage and r = 1; no scaling,
  no speculation.  The normalisation baseline of Figs. 6.11-6.16.
* **No-TS** -- joint voltage optimisation of Eq. 4.4 but with timing
  speculation disabled (r fixed at 1): the conventional barrier-aware
  DVFS of Liu et al. [15].
* **Per-core TS** -- each core independently minimises its *own*
  ``en_i + theta * t_i`` over all (V, r): a best-case bound for
  single-core timing-speculation schemes (Razor) naively applied
  per-core, with offline access to the true error functions.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .poly import (
    SynTSSolution,
    _assemble_once,
    _batch_inputs,
    solve_synts_poly_batch,
    stacked_shape_groups,
)
from .problem import SynTSProblem

__all__ = [
    "solve_nominal",
    "solve_no_ts",
    "solve_no_ts_batch",
    "solve_per_core_ts",
    "solve_per_core_ts_batch",
]


def solve_nominal(problem: SynTSProblem, theta: float = 0.0) -> SynTSSolution:
    """All cores at (V_max, r = 1)."""
    j, k = 0, problem.config.n_tsr - 1
    return SynTSSolution.at(problem, [(j, k)] * problem.n_threads, theta)


def _expand_r1_solution(
    problem: SynTSProblem, theta: float, sol: SynTSSolution
) -> SynTSSolution:
    """Re-express an r = 1 slice solution in the full configuration
    space (TSR index of r = 1)."""
    k_full = problem.config.n_tsr - 1
    indices = [(j, k_full) for (j, _) in sol.indices]
    return SynTSSolution.at(problem, indices, float(theta), sol.critical_thread)


def solve_no_ts(problem: SynTSProblem, theta: float) -> SynTSSolution:
    """Joint DVFS without speculation: Eq. 4.4 restricted to r = 1
    (a one-interval :func:`solve_no_ts_batch` call)."""
    return solve_no_ts_batch([problem], [theta])[0]


def solve_no_ts_batch(
    problems: Sequence[SynTSProblem], thetas: Sequence[float]
) -> List[SynTSSolution]:
    """No TS on many intervals; ``problems[b]`` at ``thetas[b]``.

    Each distinct problem gets one r = 1 slice, and the slices go
    through :func:`solve_synts_poly_batch` in one call, which checks
    the inputs.  Each (problem, indices) is re-expressed in the full
    configuration space once; its other thetas only re-cost that
    evaluation.
    """
    distinct = {id(problem): problem for problem in problems}
    slices = {key: p.restrict_tsr([1.0]) for key, p in distinct.items()}
    solutions = solve_synts_poly_batch([slices[id(p)] for p in problems], thetas)
    expanded: dict = {}
    return [
        _assemble_once(
            expanded,
            (id(problem), sol.indices),
            sol.theta,
            lambda: _expand_r1_solution(problem, sol.theta, sol),
            critical_thread=sol.critical_thread,
        )
        for problem, sol in zip(problems, solutions)
    ]


def _per_core_solution(
    problem: SynTSProblem, theta: float, flat_row: Sequence[int]
) -> SynTSSolution:
    """Assemble a solution from per-thread flat argmin configurations
    (the barrier max-semantics enters only here, at evaluation time)."""
    s = problem.config.n_tsr
    indices = [(int(f) // s, int(f) % s) for f in flat_row]
    return SynTSSolution.at(problem, indices, float(theta))


def solve_per_core_ts(problem: SynTSProblem, theta: float) -> SynTSSolution:
    """Independent per-core optimisation (existing TS schemes), a
    one-interval :func:`solve_per_core_ts_batch` call.

    Each core minimises ``en_i + theta * t_i`` in isolation; the
    barrier max-semantics is ignored at decision time (that is exactly
    the deficiency SynTS fixes) but applied at evaluation time.
    """
    return solve_per_core_ts_batch([problem], [theta])[0]


@np.errstate(over="ignore")  # an overflowing theta term is an inf cost
def solve_per_core_ts_batch(
    problems: Sequence[SynTSProblem], thetas: Sequence[float]
) -> List[SynTSSolution]:
    """Per-core TS on many intervals; ``problems[b]`` at ``thetas[b]``.

    Same-shape interval tables are stacked and the per-core argmin
    runs once over the whole (interval, thread) plane; ``np.argmin``
    picks each thread's first minimum configuration.  An interval
    whose argmins repeat across thetas is assembled once and re-costed
    per theta.
    """
    problems, thetas = _batch_inputs(problems, thetas)
    out: List[SynTSSolution] = [None] * len(problems)  # type: ignore[list-item]
    for members, rows, times, energies in stacked_shape_groups(problems):
        theta_col = np.asarray([thetas[b] for b in members])[:, None, None]
        flat = np.argmin(energies[rows] + theta_col * times[rows], axis=2)  # (B, m)
        assembled: dict = {}
        for flat_row, row, b in zip(flat, rows, members):
            out[b] = _assemble_once(
                assembled,
                (row, flat_row.tobytes()),
                thetas[b],
                lambda: _per_core_solution(problems[b], thetas[b], flat_row),
            )
    return out
