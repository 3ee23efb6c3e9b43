"""Fig. 6.17 -- Actual vs. online-estimated error probability.

Runs the sampling phase (N_samp = 10 % of the barrier interval) for
every thread of Radix and FMM and compares the estimated curves with
the true ones.  The paper's two fidelity claims are checked: the
estimates track the actual probabilities, and the timing-speculation
critical thread is always identified.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.report import Series

from . import EXPERIMENTS
from .common import REQUIRED, Experiment, ExperimentResult

__all__ = ["run", "run_benchmark"]


@Experiment(
    "fig_6_17",
    "fig_6_17",
    "run_benchmark",
    benchmark=REQUIRED,
    stage="simple_alu",
    # the figure's seed, so a panel called alone matches the figure's
    seed=EXPERIMENTS["fig_6_17"].defaults["seed"],
    sampling_fraction=0.10,
).define
def run_benchmark(
    benchmark: str, stage: str, seed: int, sampling_fraction: float
) -> ExperimentResult:
    import numpy as np

    from repro.core.online import OnlineKnobs, sample_interval
    from repro.engine.cells import cached_interval_problems

    problem = cached_interval_problems(benchmark, stage)[0]
    ratios = tuple(problem.config.tsr_levels)
    # the online controller's own sampling phase
    records, _, estimated = sample_interval(
        problem,
        np.random.default_rng(seed),
        OnlineKnobs(sampling_fraction=sampling_fraction),
    )
    actual = problem.error_rates

    series = []
    rows = []
    for i, record in enumerate(records):
        series.append(Series(f"T{i}", ratios, tuple(actual[i])))
        series.append(Series(f"T{i} (est.)", ratios, tuple(estimated[i])))
        rows.append(
            (
                f"T{i}",
                round(float(actual[i, 0]), 4),
                round(float(estimated[i, 0]), 4),
                record.plan.n_samp,
            )
        )
    max_abs_dev = float(np.max(np.abs(actual - estimated)))
    critical_ok = int(np.argmax(actual[:, 0])) == int(np.argmax(estimated[:, 0]))
    return ExperimentResult(
        experiment_id="fig_6_17",
        title=f"Actual vs. estimated error probability ({benchmark}, {stage})",
        headers=["thread", "actual err(0.64)", "estimated err(0.64)", "N_samp"],
        rows=rows,
        series=series,
        notes={
            "max |actual - estimated|": round(max_abs_dev, 4),
            "critical thread identified": critical_ok,
            "paper": "estimates close to actual; critical thread always found",
        },
    )


@EXPERIMENTS["fig_6_17"].define
def run(seed: int) -> Dict[str, ExperimentResult]:
    """Both published panels: Radix and FMM."""
    return {
        name: run_benchmark(name, seed=seed) for name in ("radix", "fmm")
    }


if __name__ == "__main__":
    for result in run().values():
        print(result.render())
        print()
