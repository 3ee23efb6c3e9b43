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

    from repro.core.online import OnlineKnobs
    from repro.core.runner import interval_problems
    from repro.errors.estimation import SamplingPlan, estimate_error_function
    from repro.workloads import build_benchmark

    problem = interval_problems(build_benchmark(benchmark), stage)[0]
    cfg = problem.config
    knobs = OnlineKnobs(sampling_fraction=sampling_fraction)
    rng = np.random.default_rng(seed)
    ratios = np.asarray(cfg.tsr_levels)

    series = []
    rows = []
    true_at_min, est_at_min = [], []
    max_abs_dev = 0.0
    for i, thread in enumerate(problem.threads):
        n_samp = knobs.budget_for(thread.n_instructions, cfg.n_tsr)
        plan = SamplingPlan(
            ratios=tuple(cfg.tsr_levels), n_samp=n_samp, v_samp=cfg.voltages[0]
        )
        estimate, _ = estimate_error_function(thread.err, plan, rng)
        actual = np.clip(thread.err.curve(ratios), 0, 1)
        estimated = estimate.curve(ratios)
        max_abs_dev = max(max_abs_dev, float(np.max(np.abs(actual - estimated))))
        series.append(Series(f"T{i}", tuple(ratios), tuple(actual)))
        series.append(Series(f"T{i} (est.)", tuple(ratios), tuple(estimated)))
        rows.append(
            (
                f"T{i}",
                round(float(actual[0]), 4),
                round(float(estimated[0]), 4),
                n_samp,
            )
        )
        true_at_min.append(float(actual[0]))
        est_at_min.append(float(estimated[0]))

    critical_ok = int(np.argmax(true_at_min)) == int(np.argmax(est_at_min))
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
