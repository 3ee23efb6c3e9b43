"""SynTS beyond barriers (the paper's future-work direction).

The conclusion proposes extending SynTS "to multi-threaded applications
that use other synchronization mechanisms, besides barriers".  This
module implements that extension for the synchronisation topologies a
barrier generalises into:

* **barrier** -- all threads rendezvous; interval time is the max of
  thread times (the paper's Eq. 4.2);
* **serial** -- a producer-consumer chain: thread i+1 starts when
  thread i finishes; interval time is the *sum* of thread times;
* **phased** -- ordered groups; threads inside a group barrier with
  each other, groups execute serially (fork-join stages).

The optimisation structure changes with the topology:

* serial cost ``sum en_i + theta * sum t_i`` is fully *separable*: the
  per-core optimum is globally optimal, so the SynTS advantage over
  per-core TS vanishes -- synergy is a property of the *max*
  semantics, not of timing speculation itself;
* phased cost decomposes into independent per-group barrier problems,
  each solved exactly by SynTS-Poly.

Both facts are asserted by the test suite and quantified by the
``extension_sync`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import Assignment
from .poly import solve_synts_poly
from .problem import SynTSProblem, check_theta

__all__ = [
    "SyncTopology",
    "barrier_topology",
    "serial_topology",
    "phased_topology",
    "SyncSolution",
    "solve_synts_sync",
]


@dataclass(frozen=True)
class SyncTopology:
    """Ordered groups of thread indices.

    Threads within a group synchronise on a barrier; groups execute
    serially in order.  ``[(0,1,2,3)]`` is the paper's barrier;
    ``[(0,),(1,),(2,),(3,)]`` is a serial chain.
    """

    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        seen = [i for g in self.groups for i in g]
        if not seen:
            raise ValueError("topology must cover at least one thread")
        if len(seen) != len(set(seen)):
            raise ValueError("a thread may appear in exactly one group")
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("groups must cover threads 0..M-1 exactly")

    @property
    def n_threads(self) -> int:
        return sum(len(g) for g in self.groups)

    def interval_time(self, thread_times: Sequence[float]) -> float:
        """Sum over groups of the in-group barrier max."""
        return sum(
            max(thread_times[i] for i in group) for group in self.groups
        )


def barrier_topology(m: int) -> SyncTopology:
    """The paper's setting: one barrier over all M threads."""
    return SyncTopology(groups=(tuple(range(m)),))


def serial_topology(m: int) -> SyncTopology:
    """Producer-consumer chain: every thread its own phase."""
    return SyncTopology(groups=tuple((i,) for i in range(m)))


def phased_topology(group_sizes: Sequence[int]) -> SyncTopology:
    """Fork-join phases of the given sizes, threads numbered in order."""
    groups: List[Tuple[int, ...]] = []
    nxt = 0
    for size in group_sizes:
        if size <= 0:
            raise ValueError("group sizes must be positive")
        groups.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return SyncTopology(groups=tuple(groups))


@dataclass(frozen=True)
class SyncSolution:
    """Optimal assignment under a synchronisation topology."""

    topology: SyncTopology
    indices: Tuple[Tuple[int, int], ...]
    assignment: Assignment
    energies: Tuple[float, ...]
    times: Tuple[float, ...]
    total_time: float
    theta: float

    @property
    def total_energy(self) -> float:
        return sum(self.energies)

    @property
    def cost(self) -> float:
        return self.total_energy + self.theta * self.total_time

    @property
    def edp(self) -> float:
        return self.total_energy * self.total_time


def _solve_group(
    problem: SynTSProblem, theta: float, group: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """Exact solve of one group's sub-cost."""
    s = problem.config.n_tsr
    if len(group) == 1:
        # serial element: separable per-thread argmin of E + theta*T
        i = group[0]
        t = problem.time_table.reshape(problem.n_threads, -1)[i]
        e = problem.energy_table.reshape(problem.n_threads, -1)[i]
        flat = int(np.argmin(e + theta * t))
        return [(flat // s, flat % s)]
    sub = SynTSProblem(
        config=problem.config,
        threads=tuple(problem.threads[i] for i in group),
    )
    return list(solve_synts_poly(sub, theta).indices)


def solve_synts_sync(
    problem: SynTSProblem, theta: float, topology: SyncTopology
) -> SyncSolution:
    """Exactly minimise ``sum en + theta * interval_time(topology)``.

    The cost decomposes over groups (each group contributes its own
    energy plus ``theta`` times its barrier max), so solving each
    group independently -- SynTS-Poly for true groups, separable
    argmin for singletons -- is globally optimal.
    """
    check_theta(theta)
    if topology.n_threads != problem.n_threads:
        raise ValueError(
            f"topology covers {topology.n_threads} threads, problem has "
            f"{problem.n_threads}"
        )
    indices: List[Tuple[int, int]] = [(-1, -1)] * problem.n_threads
    for group in topology.groups:
        for thread_idx, cfg_idx in zip(group, _solve_group(problem, theta, group)):
            indices[thread_idx] = cfg_idx
    evaluation = problem.evaluate_indices(indices)
    total_time = topology.interval_time(evaluation.times)
    return SyncSolution(
        topology=topology,
        indices=tuple(indices),
        assignment=problem.assignment_from_indices(indices),
        energies=evaluation.energies,
        times=evaluation.times,
        total_time=total_time,
        theta=theta,
    )
