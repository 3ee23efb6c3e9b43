"""Section 6.3 -- Optimisation overhead of SynTS-Online.

Gate-level roll-up of the SynTS hardware additions (Razor shadow
latches on the endangered capture flops, error counters, sampling FSM,
configuration registers) against the core.  The paper reports ~3.41 %
power and ~2.7 % area overhead from FreePDK-45 synthesis.
"""

from __future__ import annotations

from . import EXPERIMENTS
from .common import ExperimentResult

__all__ = ["run"]


@EXPERIMENTS["sec_6_3"].define
def run() -> ExperimentResult:
    # imported here: a warm cache hit never loads the gate-level
    # circuit modules the overhead roll-up synthesises
    from repro.overhead import estimate_overhead

    report = estimate_overhead()
    rows = [
        (
            s.name,
            int(s.n_capture_flops),
            int(s.n_protected_flops),
            round(s.combinational_area, 0),
        )
        for s in report.stage_inventories
    ]
    rows.append(
        (
            "SynTS additions",
            "-",
            report.additions.shadow_latches,
            round(report.additions_area, 0),
        )
    )
    return ExperimentResult(
        experiment_id="sec_6_3",
        title="SynTS-Online hardware overhead relative to the core",
        headers=["block", "capture flops", "protected/shadowed", "area"],
        rows=rows,
        notes={
            "area overhead": f"{report.area_overhead_pct:.2f}% (paper ~2.7%)",
            "power overhead": f"{report.power_overhead_pct:.2f}% (paper ~3.41%)",
            "method": "shadow only flops whose STA arrival exceeds "
            "r_min x period; stages = 25% of core logic",
        },
        plot=False,
    )


if __name__ == "__main__":
    print(run().render())
