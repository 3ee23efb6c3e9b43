"""Fig. 1.2 -- Timing speculation versus error probability.

The conceptual single-thread trade-off: pushing the clock beyond the
rated frequency first buys performance, then loses it once the
replay penalty dominates.  We sweep a fine TSR grid for a single
thread and locate the optimal speculative point ``r_s`` (the figure's
``f_s``), verifying the U-shape the introduction argues from.
"""

from __future__ import annotations

from repro.analysis.report import Series

from . import EXPERIMENTS
from .common import ExperimentResult

__all__ = ["run"]


@EXPERIMENTS["fig_1_2"].define
def run(n_points: int) -> ExperimentResult:
    import numpy as np

    from repro.core.model import (
        OperatingPoint,
        PlatformConfig,
        ThreadParams,
        thread_time,
    )
    from repro.errors.probability import BetaTailErrorFunction

    cfg = PlatformConfig()
    err = BetaTailErrorFunction(a=5.5, b=4.0, lo=0.4, hi=0.99, scale_p=0.25)
    thread = ThreadParams(n_instructions=100_000, cpi_base=1.25, err=err)

    ratios = np.linspace(0.5, 1.0, n_points)
    times = np.array(
        [thread_time(thread, OperatingPoint(1.0, float(r)), cfg) for r in ratios]
    )
    probs = err.curve(ratios)
    nominal = thread_time(thread, OperatingPoint(1.0, 1.0), cfg)
    norm_times = times / nominal
    best = int(np.argmin(norm_times))

    return ExperimentResult(
        experiment_id="fig_1_2",
        title="Timing speculation vs. error probability (single thread)",
        headers=["quantity", "value"],
        rows=[
            ("optimal speculative ratio r_s", round(float(ratios[best]), 3)),
            ("execution time at r_s (norm.)", round(float(norm_times[best]), 4)),
            ("error probability at r_s", round(float(probs[best]), 4)),
            ("time at deepest ratio (norm.)", round(float(norm_times[0]), 4)),
        ],
        series=[
            Series("exec time (norm.)", tuple(ratios), tuple(norm_times)),
            Series("error probability", tuple(ratios), tuple(probs)),
        ],
        notes={
            "shape": "U-shaped time curve; past r_s the replay penalty dominates",
            "u_shape_holds": bool(
                norm_times[best] < norm_times[0] and norm_times[best] < norm_times[-1]
            ),
        },
    )


if __name__ == "__main__":
    print(run().render())
