#!/usr/bin/env python3
"""Quickstart: optimise one barrier interval with SynTS.

Builds the calibrated Radix workload, takes its first barrier interval
on the Decode pipe stage, and compares the four schemes of the paper:
Nominal, No-TS (joint DVFS), Per-core TS (independent speculation) and
SynTS (the joint optimum, Algorithm 1).

Run:  python examples/quickstart.py
(exits 1 if the MILP cross-check disagrees with SynTS-Poly)
"""

import sys

from repro import build_benchmark, solve_synts_poly
from repro.analysis import format_table
from repro.core import (
    interval_problems,
    solve_no_ts,
    solve_nominal,
    solve_per_core_ts,
    solve_synts_milp,
)


def main() -> int:
    benchmark = build_benchmark("radix")
    problem = interval_problems(benchmark, "decode")[0]
    theta = problem.equal_weight_theta()
    print(f"Radix, decode stage, barrier interval 1 of {benchmark.n_intervals}")
    print(f"M = {problem.n_threads} threads; theta (equal weight) = {theta:.3f}\n")

    schemes = [
        ("Nominal", solve_nominal(problem, theta)),
        ("No-TS", solve_no_ts(problem, theta)),
        ("Per-core TS", solve_per_core_ts(problem, theta)),
        ("SynTS", solve_synts_poly(problem, theta)),
    ]
    nominal_ev = schemes[0][1].evaluation

    rows = []
    for name, sol in schemes:
        ev = sol.evaluation
        rows.append(
            (
                name,
                round(ev.texec / nominal_ev.texec, 3),
                round(ev.total_energy / nominal_ev.total_energy, 3),
                round(ev.edp / nominal_ev.edp, 3),
                " ".join(
                    f"({p.voltage:.2f}V,r={p.tsr:.2f})" for p in sol.assignment.points
                ),
            )
        )
    print(
        format_table(
            ["scheme", "time", "energy", "EDP", "per-thread (V, r)"], rows
        )
    )

    # The MILP route (Eqs. 4.5-4.10) must agree with Algorithm 1.
    milp = solve_synts_milp(problem, theta)
    poly = schemes[-1][1]
    agree = abs(milp.cost - poly.cost) < 1e-6 * poly.cost
    print(
        f"\nSynTS-MILP cross-check: cost {milp.cost:.1f} "
        f"(SynTS-Poly {poly.cost:.1f}, agree: {agree})"
    )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
