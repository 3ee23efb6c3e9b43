"""The scalar SynTS-Poly reference: Algorithm 1 as a triple loop.

The semantic reference the vectorized solver is property-tested
against (same candidate order, same ``< best - 1e-15`` first-wins
acceptance, same output structure); it shares no code with
:func:`repro.core.poly.solve_synts_stack` beyond the tie-sensitive
sort recurrence and the tie margin.
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.poly import (
    _TIE_EPS,
    SynTSSolution,
    _sorted_improvement_tables,
)
from repro.core.problem import SynTSProblem, check_theta


def _sorted_prefix_tables(problem: SynTSProblem):
    """Per-thread configurations sorted by time with prefix-min energy.

    Returns ``(times_sorted, prefix_min_energy, argmin_flat_index)``
    arrays of shape (M, Q*S): ``argmin_flat_index[i, n]`` is the flat
    (j*S + k) index of the cheapest configuration of thread i among
    its n+1 fastest configurations -- the most recent strict
    improvement, recovered as a ``np.maximum.accumulate`` over the
    improvement positions (the scalar ``if e < best: best_idx = pos``
    recurrence, vectorized).
    """
    t = problem.time_table.reshape(problem.n_threads, -1)
    e = problem.energy_table.reshape(problem.n_threads, -1)
    order, t_sorted, _, prefix_min, improved = _sorted_improvement_tables(t, e)
    n = t.shape[1]
    positions = np.where(improved, np.arange(n)[None, :], 0)
    argmin_sorted = np.maximum.accumulate(positions, axis=1)
    argmin_flat = np.take_along_axis(order, argmin_sorted, axis=1)
    return t_sorted, prefix_min, argmin_flat


def solve_synts_poly_reference(
    problem: SynTSProblem, theta: float
) -> SynTSSolution:
    """The original scalar enumeration (Algorithm 1), kept verbatim.

    This is the semantic reference the vectorized solver is
    property-tested against: same candidate order, same
    ``< best - 1e-15`` first-wins acceptance, same output structure.
    """
    check_theta(theta)
    cfg = problem.config
    m = problem.n_threads
    q, s = cfg.n_voltages, cfg.n_tsr
    times = problem.time_table.reshape(m, -1)
    energies = problem.energy_table.reshape(m, -1)
    t_sorted, prefix_min_e, argmin_flat = _sorted_prefix_tables(problem)

    best_cost = np.inf
    best: Optional[Tuple[int, int, np.ndarray]] = None  # (i, flat cfg, others)

    for i in range(m):
        for flat in range(q * s):
            texec = times[i, flat]
            total_e = energies[i, flat]
            others = np.full(m, -1, dtype=np.int64)
            others[i] = flat
            feasible = True
            for l in range(m):
                if l == i:
                    continue
                # how many of l's sorted configs finish within texec
                pos = int(np.searchsorted(t_sorted[l], texec, side="right")) - 1
                if pos < 0:
                    feasible = False
                    break
                total_e += prefix_min_e[l, pos]
                others[l] = argmin_flat[l, pos]
            if not feasible:
                continue
            cost = total_e + theta * texec
            if cost < best_cost - _TIE_EPS:
                best_cost = cost
                best = (i, flat, others)

    if best is None:
        raise RuntimeError("SynTS-Poly found no feasible candidate (impossible)")
    crit, _, flat_assignment = best
    indices = tuple((int(f) // s, int(f) % s) for f in flat_assignment)
    evaluation = problem.evaluate_indices(indices)
    return SynTSSolution(
        indices=indices,
        assignment=problem.assignment_from_indices(indices),
        evaluation=evaluation,
        cost=float(evaluation.cost(theta)),
        theta=theta,
        critical_thread=crit,
    )
