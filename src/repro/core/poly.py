"""SynTS-Poly: the paper's polynomial-time exact algorithm (Alg. 1).

The insight: some thread is *critical* (attains the barrier time).
Enumerate which thread i is critical and its configuration (j, k);
``texec`` is then fixed to ``T[i, j, k]``, and every other thread
independently takes its cheapest configuration finishing no later than
``texec`` (``minEnergy``).  The cheapest of all candidates is optimal
(Lemma 4.2.1).  Complexity O(M^2 Q^2 S^2) naively; this implementation
sorts each thread's configurations by time and prefix-minimises energy,
giving O(M Q S (log(QS) + M)).

One kernel implements that structure, and a reference checks it:

* :func:`solve_synts_poly_batch` -- the solver.  Every thread's
  minEnergy tables are pruned to their dominated-configuration-free
  staircase, :func:`_theta_free_costs` sums each candidate's energy
  and decides its feasibility once per distinct problem, each
  (problem, theta) member adds ``theta * texec``, and the winner is
  extracted by replaying the reference fold over the (few)
  running-minimum improvements.  The engine's
  :class:`~repro.engine.cells.CellBatch` dispatch feeds it whole
  stages; :func:`solve_synts_poly` is a one-interval call to it.
* :func:`solve_synts_poly_reference` -- the original scalar triple
  loop, kept verbatim as the semantic reference (its ``< best - 1e-15``
  first-wins fold defines the tie-breaking contract).  Outputs are
  bit-identical to it, tie cases included; the property suite in
  ``tests/core/test_poly_vectorized.py`` enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import Assignment, Evaluation
from .problem import SynTSProblem, check_theta

__all__ = [
    "SynTSSolution",
    "solve_synts_poly",
    "solve_synts_poly_reference",
    "solve_synts_poly_batch",
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
    problem: SynTSProblem,
    theta: float,
    crit: int,
    flat: int,
    stairs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> SynTSSolution:
    """Build the winning assignment exactly as the reference does."""
    m = problem.n_threads
    s = problem.config.n_tsr
    times = problem.time_table.reshape(m, -1)
    texec = times[crit, flat]
    flat_assignment = np.full(m, -1, dtype=np.int64)
    flat_assignment[crit] = flat
    for l in range(m):
        if l == crit:
            continue
        t_star, _, idx_star = stairs[l]
        pos = int(np.searchsorted(t_star, texec, side="right")) - 1
        flat_assignment[l] = idx_star[pos]
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


@np.errstate(over="ignore")  # an overflowing theta term is an inf cost
def solve_synts_poly_batch(
    problems: Sequence[SynTSProblem], thetas: Sequence[float]
) -> List[SynTSSolution]:
    """Solve many intervals; ``problems[b]`` at ``thetas[b]``.

    The returned list is aligned with the inputs; mixed table shapes
    are grouped internally, so heterogeneous batches are legal.  Theta
    enters Eq. 4.4 only as ``+ theta * texec``: each distinct problem
    is pruned and costed once by :func:`_theta_free_costs`, each
    member adds its own theta term and folds, and a winner a problem
    repeats is assembled once and re-costed per theta.
    """
    problems, thetas = _batch_inputs(problems, thetas)
    out: List[Optional[SynTSSolution]] = [None] * len(problems)
    for members, rows, times, energies in stacked_shape_groups(problems):
        row_stairs = [
            prune_dominated_tables(times[r], energies[r])
            for r in range(len(times))
        ]
        totals, feasible = _theta_free_costs(times, energies, row_stairs)
        member_thetas = np.asarray([thetas[b] for b in members])
        costs = totals[rows] + member_thetas[:, None, None] * times[rows]
        costs[~feasible[rows]] = np.inf
        n = times.shape[2]
        assembled: dict = {}
        for k, (b, row) in enumerate(zip(members, rows)):
            theta = thetas[b]
            winner = _fold_winner(costs[k].ravel())
            if winner < 0:
                raise _cost_overflow(theta)
            crit, flat, stairs = winner // n, winner % n, row_stairs[row]
            out[b] = _assemble_once(
                assembled,
                (row, winner),
                theta,
                lambda: _assemble(problems[b], theta, crit, flat, stairs),
            )
    return out  # type: ignore[return-value]


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
