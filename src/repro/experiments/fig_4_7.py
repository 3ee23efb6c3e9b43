"""Fig. 4.7 -- The sampling phase at the start of a barrier interval.

Regenerates the schedule the figure draws: each thread spends the
first ``N_samp`` instructions cycling through the S frequency levels
(``N_samp / S`` instructions each) at the sampling voltage, then runs
the optimised configuration for the remainder.
"""

from __future__ import annotations

from . import EXPERIMENTS
from .common import ExperimentResult

__all__ = ["run"]


@EXPERIMENTS["fig_4_7"].define
def run(n_instructions: int, n_samp: int) -> ExperimentResult:
    from repro.core.model import PlatformConfig
    from repro.core.online import OnlineKnobs
    from repro.errors.estimation import SamplingPlan

    cfg = PlatformConfig()
    knobs = OnlineKnobs(n_samp=n_samp)
    budget = knobs.budget_for(n_instructions, cfg.n_tsr)
    plan = SamplingPlan(
        ratios=tuple(cfg.tsr_levels), n_samp=budget, v_samp=cfg.voltages[0]
    )
    counts = plan.instructions_per_level()

    rows = []
    start = 0
    for r, n in zip(plan.ratios, counts):
        rows.append(
            (
                f"r = {r:.3f}",
                f"{plan.v_samp:.2f} V",
                int(n),
                start,
                start + int(n),
            )
        )
        start += int(n)
    rows.append(
        (
            "optimised (V_i, r_i)",
            "per-thread",
            n_instructions - budget,
            budget,
            n_instructions,
        )
    )
    return ExperimentResult(
        experiment_id="fig_4_7",
        title="Sampling phase schedule at the start of a barrier interval",
        headers=["phase", "voltage", "instructions", "from", "to"],
        rows=rows,
        notes={
            "N_samp": budget,
            "levels S": cfg.n_tsr,
            "sampling share": f"{budget / n_instructions * 100:.1f}% "
            f"(paper: 10% of the interval)",
        },
        plot=False,
    )


if __name__ == "__main__":
    print(run().render())
