#!/usr/bin/env python3
"""Online SynTS over a full benchmark (paper Section 4.3).

Runs the sampling-based controller through every barrier interval of
Cholesky on the SimpleALU stage: each interval samples 50K
instructions across the 6 TSR levels, estimates the per-thread error
curves, optimises with SynTS-Poly and executes the remainder.  The
script reports per-interval estimates, decisions and the total EDP
against the offline optimum.

Run:  python examples/online_controller.py
"""

import numpy as np

from repro.analysis import format_table
from repro.core import OnlineKnobs, run_online_interval
from repro.engine import (
    ExperimentEngine,
    benchmark_specs,
    cached_interval_problems,
    totalize,
)


def main() -> None:
    stage = "simple_alu"
    problems = cached_interval_problems("cholesky", stage)
    theta = problems[0].equal_weight_theta()
    knobs = OnlineKnobs(n_samp=50_000)
    rng = np.random.default_rng(2016)

    # the controller draws one random stream through the intervals
    outcomes = [run_online_interval(p, theta, rng, knobs) for p in problems]
    # the offline optimum at the same (equal-weight) theta, as cells
    specs = benchmark_specs("cholesky", stage, "synts")
    offline = totalize(ExperimentEngine().run_cells(list(specs)))

    print(f"Cholesky / {stage}: online SynTS vs offline optimum\n")
    for k, outcome in enumerate(outcomes):
        print(f"barrier interval {k + 1}:")
        rows = []
        for i, (est, rec) in enumerate(zip(outcome.estimates, outcome.records)):
            point = outcome.decision.assignment.points[i]
            rows.append(
                (
                    f"T{i}",
                    rec.total_instructions(),
                    rec.total_errors(),
                    round(float(est(0.64)), 4),
                    f"({point.voltage:.2f}V, r={point.tsr:.2f})",
                )
            )
        print(
            format_table(
                ["thread", "sampled", "errors seen", "est. err(0.64)", "decision"],
                rows,
            )
        )
        print()

    energy = time = 0.0
    for outcome in outcomes:
        energy += outcome.total_energy
        time += outcome.texec
    ratio = energy * time / offline.edp
    print(f"total online EDP / offline EDP = {ratio:.3f} "
          f"(paper: ~1.10 on average across the suite)")


if __name__ == "__main__":
    main()
