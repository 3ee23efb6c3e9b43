"""Table 5.1 -- Voltage versus nominal clock period.

Regenerates the published table from first principles: the calibrated
alpha-power inverter ring is transient-simulated at each voltage level
and the measured periods are normalised to the 1.0 V corner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .common import ExperimentResult, cached_experiment

if TYPE_CHECKING:
    from repro.circuit.ring_oscillator import RingOscillatorSweep

__all__ = ["run", "tabulate"]


@cached_experiment("table_5_1")
def run(n_stages: int = 5) -> ExperimentResult:
    from repro.circuit.ring_oscillator import sweep_ring_oscillator

    return tabulate(sweep_ring_oscillator(n_stages=n_stages), n_stages)


def tabulate(sweep: RingOscillatorSweep, n_stages: int = 5) -> ExperimentResult:
    """Table 5.1 from an already simulated ``n_stages`` ring sweep."""
    rows = [
        (vdd, published, round(regen, 3))
        for vdd, published, regen in sweep.rows()
    ]
    return ExperimentResult(
        experiment_id="table_5_1",
        title="Voltage versus nominal clock period (ring-oscillator regeneration)",
        headers=["Vdd (V)", "tnom paper (x)", "tnom regenerated (x)"],
        rows=rows,
        notes={
            "paper": "HSPICE + PTM 22nm ring oscillators",
            "ours": f"{n_stages}-stage alpha-power transient ring",
            "max relative error": f"{sweep.max_rel_error * 100:.1f}%",
        },
        plot=False,
    )


if __name__ == "__main__":
    print(run().render())
