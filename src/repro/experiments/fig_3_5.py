"""Fig. 3.5 -- Per-thread error probability vs. normalised clock
period for one Radix barrier interval.

The motivating observation: thread 0's error-probability curve sits
~4x above the lowest thread's, making it the timing-speculation
critical thread at every speculation depth.
"""

from __future__ import annotations

from repro.analysis.report import Series

from . import EXPERIMENTS
from .common import ExperimentResult

__all__ = ["run"]


@EXPERIMENTS["fig_3_5"].define
def run(benchmark: str, stage: str, n_points: int) -> ExperimentResult:
    import numpy as np

    from repro.workloads.splash2 import SPLASH2_PROFILES, thread_error_function

    profile = SPLASH2_PROFILES[benchmark]
    ratios = np.linspace(0.6, 1.0, n_points)
    series = []
    rows = []
    curves = []
    for t in range(profile.n_threads):
        err = thread_error_function(profile, stage, t)
        curve = err.curve(ratios)
        curves.append(curve)
        series.append(Series(f"T{t}", tuple(ratios), tuple(curve)))
        rows.append(
            (f"T{t}", round(float(err(0.64)), 4), round(float(err(0.8)), 4),
             round(float(err(0.92)), 5))
        )

    at_min = np.array([c[0] for c in curves])
    spread = float(at_min.max() / at_min.min()) if at_min.min() > 0 else float("inf")
    return ExperimentResult(
        experiment_id="fig_3_5",
        title=f"Error probability vs. normalised clock period "
        f"({benchmark}, {stage}, one barrier interval)",
        headers=["thread", "err(0.64)", "err(0.80)", "err(0.92)"],
        rows=rows,
        series=series,
        notes={
            "critical thread": int(np.argmax(at_min)),
            "max/min spread at deep speculation": f"{spread:.1f}x",
            "paper": "thread 0 consistently highest, ~4x the lowest thread",
        },
    )


if __name__ == "__main__":
    print(run().render())
