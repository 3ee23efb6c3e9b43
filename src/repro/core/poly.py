"""SynTS-Poly: the paper's polynomial-time exact algorithm (Alg. 1).

The insight: some thread is *critical* (attains the barrier time).
Enumerate which thread i is critical and its configuration (j, k);
``texec`` is then fixed to ``T[i, j, k]``, and every other thread
independently takes its cheapest configuration finishing no later than
``texec`` (``minEnergy``).  The cheapest of all candidates is optimal
(Lemma 4.2.1).  Complexity O(M^2 Q^2 S^2) naively; this implementation
sorts each thread's configurations by time and prefix-minimises energy,
giving O(M Q S (log(QS) + M)).

One kernel, :func:`solve_synts_stack`, implements that structure on
stacked (R, M, Q*S) tables (see its docstring);
:func:`solve_synts_poly_batch` stacks problems into it,
:func:`solve_synts_poly` is a one-interval call, and the online
controller hands it its estimated tables.  The original scalar triple
loop lives on in ``tests/core/poly_reference.py`` as the semantic
reference: its ``< best - 1e-15`` first-wins fold defines the
tie-breaking contract, and ``tests/core/test_poly_vectorized.py``
holds every output bit-identical to it, tie cases included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import Assignment, Evaluation, OperatingPoint
from .problem import SynTSProblem, check_theta

__all__ = [
    "SynTSSolution",
    "solve_synts_poly",
    "solve_synts_poly_batch",
    "solve_synts_stack",
    "prune_dominated_tables",
    "stacked_shape_groups",
]

#: The reference fold accepts a candidate only when it beats the
#: incumbent by more than this margin (guards against FP noise turning
#: exact ties into order-dependent winners).
_TIE_EPS = 1e-15


@dataclass(frozen=True)
class SynTSSolution:
    """Optimal solution of SynTS-OPT for one barrier interval.

    Attributes
    ----------
    indices:
        Per-thread (voltage index, TSR index).
    assignment:
        Per-thread operating points.
    evaluation:
        Energies/times under the assignment.
    cost:
        ``sum(en) + theta * texec`` (Eq. 4.4) at the solve's theta.
    theta:
        The weight used.
    critical_thread:
        The enumerated critical thread of the winning candidate.
    """

    indices: Tuple[Tuple[int, int], ...]
    assignment: Assignment
    evaluation: Evaluation
    cost: float
    theta: float
    critical_thread: int

    @classmethod
    def at(
        cls,
        problem: SynTSProblem,
        indices: Sequence[Tuple[int, int]],
        theta: float,
        critical_thread: Optional[int] = None,
    ) -> "SynTSSolution":
        """``problem`` run at ``indices``, costed at ``theta``; the
        critical thread defaults to the slowest (the first on ties)."""
        evaluation = problem.evaluate_indices(indices)
        if critical_thread is None:
            critical_thread = int(np.argmax(evaluation.times))
        return cls(
            indices=tuple(indices),
            assignment=problem.assignment_from_indices(indices),
            evaluation=evaluation,
            cost=float(evaluation.cost(theta)),
            theta=theta,
            critical_thread=critical_thread,
        )


def _sorted_improvement_tables(t: np.ndarray, e: np.ndarray):
    """Stable time-sort with prefix-min energy and improvement mask.

    The single definition of the tie-sensitive recurrence both table
    forms build on: ``improved[i, pos]`` is True exactly when the
    scalar reference's ``if e < best`` fires at ``pos`` (strict
    improvement of the running minimum; exact energy ties keep the
    earliest configuration).  Returns ``(order, t_sorted, e_sorted,
    prefix_min, improved)``, all of shape (M, N).
    """
    order = np.argsort(t, axis=1, kind="stable")
    t_sorted = np.take_along_axis(t, order, axis=1)
    e_sorted = np.take_along_axis(e, order, axis=1)
    prefix_min = np.minimum.accumulate(e_sorted, axis=1)
    improved = np.empty(e_sorted.shape, dtype=bool)
    improved[:, 0] = True
    improved[:, 1:] = e_sorted[:, 1:] < prefix_min[:, :-1]
    return order, t_sorted, e_sorted, prefix_min, improved


def prune_dominated_tables(
    times: np.ndarray, energies: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Dominated-configuration-free minEnergy staircases, per thread.

    For each thread (row of the (M, N) tables) drop every
    configuration that is *no faster and no cheaper* than another --
    exactly the entries the minEnergy lookup can never select: after
    the stable sort by time, a configuration survives iff it strictly
    improves the running energy minimum (exact ties keep the earliest
    configuration, the one the reference argmin picks).  Returns, per
    thread, ``(t_star, e_star, idx_star)``: survivor times (ascending),
    their energies (strictly descending) and their flat (j*S+k)
    indices.  Lookups on the pruned staircase are bit-identical to the
    full prefix-min tables -- ``searchsorted(t_star, texec,
    'right')-1`` lands on the same energy value and the same flat
    index the reference recurrence would report.
    """
    t = np.asarray(times)
    e = np.asarray(energies)
    if t.ndim != 2 or t.shape != e.shape:
        raise ValueError("need matching (M, N) time/energy tables")
    order, t_sorted, e_sorted, _, improved = _sorted_improvement_tables(t, e)

    stairs = []
    for i in range(t.shape[0]):
        keep = improved[i]
        stairs.append((t_sorted[i, keep], e_sorted[i, keep], order[i, keep]))
    return stairs


def _theta_free_costs(
    times: np.ndarray,
    energies: np.ndarray,
    row_stairs: Sequence[Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Energy sum and feasibility of every candidate, without theta.

    ``times`` and ``energies`` are (R, M, N) stacks of R problems and
    ``row_stairs[r]`` holds row r's pruned staircases.  ``totals[r, i,
    f]`` reproduces the reference's accumulation order bit-for-bit:
    start from ``E[r, i, f]`` and add the other threads' minimum
    feasible energies at ``texec = T[r, i, f]`` in ascending thread
    order.  ``feasible[r, i, f]`` is False when some thread cannot
    finish within that ``texec``.  Candidate (r, i, f) costs
    ``totals[r, i, f] + theta * T[r, i, f]``.
    """
    totals = energies.copy()
    feasible = np.ones(times.shape, dtype=bool)
    others = ~np.eye(times.shape[1], dtype=bool)
    for r, stairs in enumerate(row_stairs):
        for l, (t_star, e_star, _) in enumerate(stairs):
            # thread l's minEnergy at every other thread's texec
            pos = np.searchsorted(t_star, times[r, others[l]], side="right") - 1
            feasible[r, others[l]] &= pos >= 0
            totals[r, others[l]] += e_star[np.maximum(pos, 0)]
    return totals, feasible


def _fold_winner(flat_costs: np.ndarray) -> int:
    """Replay the reference's ``< best - 1e-15`` first-wins fold.

    Only positions that strictly improve the running minimum can ever
    be accepted by the fold (the incumbent is always within 1e-15 of
    the running prefix minimum), so the scalar replay visits just
    those few improvements instead of all M*Q*S candidates.  Returns
    the flat index of the winning candidate, or -1 when every
    candidate costs +inf (infeasible, or its theta term overflowed).
    """
    n = flat_costs.shape[0]
    running = np.minimum.accumulate(flat_costs)
    improved = np.empty(n, dtype=bool)
    improved[0] = True
    improved[1:] = flat_costs[1:] < running[:-1]
    best = np.inf
    winner = -1
    for idx in np.flatnonzero(improved):
        cost = flat_costs[idx]
        if cost < best - _TIE_EPS:
            best = cost
            winner = int(idx)
    return winner


def _assemble(
    times: np.ndarray,
    energies: np.ndarray,
    grid: Sequence[Sequence[OperatingPoint]],
    theta: float,
    crit: int,
    flat: int,
    stairs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> SynTSSolution:
    """Build the winning assignment exactly as the reference does,
    from one problem's (M, Q*S) tables and its ``config.point_grid``."""
    m = times.shape[0]
    s = len(grid[0])
    texec = times[crit, flat]
    flat_assignment = [0] * m
    flat_assignment[crit] = flat
    for l in range(m):
        if l == crit:
            continue
        t_star, _, idx_star = stairs[l]
        pos = int(np.searchsorted(t_star, texec, side="right")) - 1
        flat_assignment[l] = int(idx_star[pos])
    indices = tuple(divmod(f, s) for f in flat_assignment)
    rows = range(m)
    evaluation = Evaluation(
        energies=tuple(energies[rows, flat_assignment].tolist()),
        times=tuple(times[rows, flat_assignment].tolist()),
    )
    return SynTSSolution(
        indices=indices,
        assignment=Assignment(points=tuple(grid[j][k] for j, k in indices)),
        evaluation=evaluation,
        cost=float(evaluation.cost(theta)),
        theta=theta,
        critical_thread=crit,
    )


def _cost_overflow(theta: float) -> ValueError:
    return ValueError(
        f"theta={theta!r} is too large: the optimum's Eq. 4.4 cost "
        "sum(en) + theta * t_exec is not finite"
    )


def _assemble_once(
    assembled: dict, key, theta: float, assemble, **changes
) -> SynTSSolution:
    """The solution for ``key`` at ``theta``, assembled once per batch.

    A batch that repeats a problem at many thetas often repeats its
    winning assignment too: the first occurrence of ``key`` calls
    ``assemble()``, later ones re-cost that assignment at their own
    theta (Eq. 4.4) -- the floats ``assemble`` would have produced.
    Raises ``ValueError`` when that cost is not finite.
    """
    solution = assembled.get(key)
    if solution is None:
        assembled[key] = solution = assemble()
    else:
        cost = float(solution.evaluation.cost(theta))
        solution = replace(solution, cost=cost, theta=theta, **changes)
    if not math.isfinite(solution.cost):
        raise _cost_overflow(theta)
    return solution


def _batch_inputs(
    problems: Sequence[SynTSProblem], thetas: Sequence[float]
) -> Tuple[List[SynTSProblem], List[float]]:
    """The inputs of a batch solver as lists, one checked theta per
    problem; every batch solver starts here."""
    problems = list(problems)
    thetas = [float(t) for t in thetas]
    if len(problems) != len(thetas):
        raise ValueError(
            f"got {len(problems)} problems but {len(thetas)} thetas"
        )
    for theta in thetas:
        check_theta(theta)
    return problems, thetas


def solve_synts_poly(problem: SynTSProblem, theta: float) -> SynTSSolution:
    """Exactly minimise ``sum en_i + theta * t_exec`` (Algorithm 1):
    a one-interval :func:`solve_synts_poly_batch` call."""
    return solve_synts_poly_batch([problem], [theta])[0]


def stacked_shape_groups(problems: Sequence[SynTSProblem]):
    """Yield ``(members, rows, times, energies)`` per table shape.

    Same-shape problems (all intervals of one benchmark stage) stack
    into (R, M, Q*S) tables; mixed shapes come out as separate
    groups, members in input order.  Each distinct problem object is
    stacked once -- a theta sweep repeats the same memoised problems
    -- and ``rows[k]`` is the stack row of ``problems[members[k]]``.
    Shared by every batch solver that works over stacked interval
    tables.
    """
    groups: dict = {}
    for b, problem in enumerate(problems):
        members, rows, row_of = groups.setdefault(
            problem.time_table.shape, ([], [], {})
        )
        members.append(b)
        rows.append(row_of.setdefault(id(problem), len(row_of)))
    for members, rows, _ in groups.values():
        distinct = list(
            {row: problems[b] for b, row in zip(members, rows)}.values()
        )
        m = distinct[0].n_threads
        times = np.stack([p.time_table.reshape(m, -1) for p in distinct])
        energies = np.stack([p.energy_table.reshape(m, -1) for p in distinct])
        yield members, np.asarray(rows), times, energies


def solve_synts_poly_batch(
    problems: Sequence[SynTSProblem], thetas: Sequence[float]
) -> List[SynTSSolution]:
    """Solve many intervals; ``problems[b]`` at ``thetas[b]``.  Mixed
    table shapes are legal: each shape is one :func:`solve_synts_stack`
    call."""
    problems, thetas = _batch_inputs(problems, thetas)
    out: List[Optional[SynTSSolution]] = [None] * len(problems)
    for members, rows, times, energies in stacked_shape_groups(problems):
        solutions = solve_synts_stack(
            times,
            energies,
            rows,
            [thetas[b] for b in members],
            [problems[b].config.point_grid for b in members],
        )
        for b, solution in zip(members, solutions):
            out[b] = solution
    return out  # type: ignore[return-value]


@np.errstate(over="ignore")  # an overflowing theta term is an inf cost
def solve_synts_stack(
    times: np.ndarray,
    energies: np.ndarray,
    rows: Sequence[int],
    thetas: Sequence[float],
    grids: Sequence[Sequence[Sequence[OperatingPoint]]],
) -> List[SynTSSolution]:
    """SynTS-Poly on the (R, M, Q*S) tables of R distinct problems.

    Member k solves row ``rows[k]`` at the checked ``thetas[k]`` on
    ``grids[k]`` (its ``config.point_grid``).  Every row's minEnergy
    tables are pruned to their dominated-configuration-free
    staircase and costed once by :func:`_theta_free_costs`; each
    member adds its Eq. 4.4 ``theta * texec`` term and replays the
    reference fold over the (few) running-minimum improvements; a
    winner a row repeats is assembled once and re-costed per theta.
    """
    row_stairs = [
        prune_dominated_tables(times[r], energies[r])
        for r in range(len(times))
    ]
    totals, feasible = _theta_free_costs(times, energies, row_stairs)
    costs = totals[rows] + np.asarray(thetas)[:, None, None] * times[rows]
    costs[~feasible[rows]] = np.inf
    n = times.shape[2]
    assembled: dict = {}
    out = []
    for k, (row, theta, grid) in enumerate(zip(rows, thetas, grids)):
        winner = _fold_winner(costs[k].ravel())
        if winner < 0:
            raise _cost_overflow(theta)
        crit, flat = divmod(winner, n)
        out.append(
            _assemble_once(
                assembled,
                (row, winner),
                theta,
                lambda: _assemble(
                    times[row], energies[row], grid, theta, crit, flat,
                    row_stairs[row],
                ),
            )
        )
    return out
