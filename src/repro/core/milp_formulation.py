"""SynTS-MILP: the paper's exact MILP formulation (Eqs. 4.5-4.10).

Binary ``x_ijk`` selects voltage level j and TSR level k for thread i;
a continuous ``t_exec`` upper-bounds every thread's completion time.
Because the per-configuration time and energy are constants
(``T[i,j,k]``, ``E[i,j,k]``), Eqs. 4.6-4.9 collapse into linear
constraints in ``x``:

    minimise   sum_ijk E[i,j,k] x_ijk + theta * t_exec        (4.5)
    s.t.       t_exec >= sum_jk T[i,j,k] x_ijk      for all i (4.6-4.7)
               sum_jk x_ijk = 1                     for all i (4.10)

The model is built as arrays and solved by HiGHS through
``scipy.optimize.milp`` with a zero relative gap and no starting
point, so the optimum it reports is found independently of
SynTS-Poly.  That makes it a certificate for Algorithm 1: the two
must agree to numerical tolerance.  No figure uses this route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .poly import SynTSSolution
from .problem import SynTSProblem, check_theta

if TYPE_CHECKING:
    from scipy.optimize import Bounds, LinearConstraint

__all__ = ["build_synts_milp", "solve_synts_milp"]


def build_synts_milp(
    problem: SynTSProblem, theta: float
) -> Tuple[np.ndarray, "LinearConstraint", np.ndarray, "Bounds"]:
    """Construct the MILP as ``(cost, constraints, integrality, bounds)``.

    Variable ``i*Q*S + j*S + k`` is ``x_ijk`` and the last variable is
    ``t_exec``; the arguments are those of ``scipy.optimize.milp``.
    """
    check_theta(theta)
    from scipy.optimize import Bounds, LinearConstraint

    m = problem.n_threads
    times = problem.time_table.reshape(m, -1)
    qs = times.shape[1]
    n_x = m * qs

    cost = np.append(problem.energy_table.ravel(), float(theta))
    rows = np.zeros((2 * m, n_x + 1))
    for i in range(m):
        block = slice(i * qs, (i + 1) * qs)
        # Eq. 4.10: exactly one configuration per thread.
        rows[i, block] = 1.0
        # Eq. 4.6: t_exec dominates thread i's completion time.
        rows[m + i, block] = times[i]
        rows[m + i, -1] = -1.0
    lower = np.concatenate([np.ones(m), np.full(m, -np.inf)])
    upper = np.concatenate([np.ones(m), np.zeros(m)])
    integrality = np.append(np.ones(n_x), 0.0)
    bounds = Bounds(np.zeros(n_x + 1), np.append(np.ones(n_x), np.inf))
    return cost, LinearConstraint(rows, lower, upper), integrality, bounds


def solve_synts_milp(problem: SynTSProblem, theta: float) -> SynTSSolution:
    """Solve SynTS-OPT through the MILP route (exact, via HiGHS)."""
    from scipy.optimize import milp

    cost, constraints, integrality, bounds = build_synts_milp(problem, theta)
    result = milp(
        cost,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"mip_rel_gap": 0.0},
    )
    if result.status != 0:
        raise RuntimeError(
            f"SynTS-MILP did not solve to optimality: {result.message}"
        )

    s = problem.config.n_tsr
    active = result.x[:-1].reshape(problem.n_threads, -1) > 0.5
    indices = []
    for i, row in enumerate(active):
        chosen = np.flatnonzero(row)
        if len(chosen) != 1:
            raise RuntimeError(
                f"thread {i}: expected exactly one active configuration, "
                f"got {len(chosen)}"
            )
        indices.append(divmod(int(chosen[0]), s))

    return SynTSSolution.at(problem, indices, theta)
