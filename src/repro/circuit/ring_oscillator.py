"""Ring-oscillator regeneration of Table 5.1.

The paper: "HSPICE is used to simulate 22 nm ring oscillators and
record the clock period versus voltage, as shown in Table 5.1."

We do the same with the mini-SPICE substrate: simulate an inverter
ring at each published voltage level, measure the steady oscillation
period, and normalise to the period at Vdd = 1.0 V.  The alpha-power
device parameters are :data:`RING_CALIBRATION` (vth 0.52 V, alpha
0.9), found once by grid search over the simulated ring itself; the
regenerated table matches the published one to within 7.8 %, its
worst error, at 0.72 V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .spice import InverterParams, simulate_inverter_ring
from .voltage import TABLE_5_1

__all__ = ["RING_CALIBRATION", "RingOscillatorSweep", "sweep_ring_oscillator"]

#: Device parameters calibrated (one-time grid search) so the simulated
#: ring reproduces Table 5.1; worst-case relative error ~7.8 % at the
#: 0.72 V knee, which a single alpha-power device cannot bend around.
RING_CALIBRATION = InverterParams(vth=0.52, alpha=0.9)

#: The supply Table 5.1 normalises every period to.
REFERENCE_VDD = 1.0

#: Most Euler steps one swept voltage may take.  The horizon stretch
#: grows without bound as Vdd nears Vth; Table 5.1's longest run is
#: 89,727 steps, at 0.65 V.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class RingOscillatorSweep:
    """Result of the voltage sweep.

    Attributes
    ----------
    periods:
        Absolute measured period (s) per voltage.
    normalized:
        Period multiplier relative to Vdd = 1.0 V -- the regenerated
        Table 5.1.
    published:
        The paper's Table 5.1 for side-by-side comparison.
    max_rel_error:
        Worst relative deviation of the regenerated multipliers from
        the published ones.
    """

    periods: Dict[float, float]
    normalized: Dict[float, float]
    published: Dict[float, float]
    max_rel_error: float

    def rows(self) -> Sequence[tuple]:
        """(Vdd, published multiplier, regenerated multiplier) rows."""
        return [
            (v, self.published[v], round(self.normalized[v], 3))
            for v in sorted(self.normalized, reverse=True)
        ]


def sweep_ring_oscillator(
    n_stages: int = 5,
    voltages: Optional[Sequence[float]] = None,
    params: Optional[InverterParams] = None,
    t_stop: float = 1.5e-9,
    dt: float = 2.0e-13,
) -> RingOscillatorSweep:
    """Simulate the ring at each voltage and regenerate Table 5.1.

    Parameters
    ----------
    n_stages:
        Odd number of inverters in the ring.
    voltages:
        Supply levels to sweep; defaults to the paper's seven.  At
        least one must be a Table 5.1 level.  The 1.0 V reference is
        simulated for the normalisation even when it is not listed,
        but only the listed levels are reported.
    params:
        Inverter device parameters; defaults to the calibrated
        :data:`RING_CALIBRATION`.
    t_stop, dt:
        Transient horizon and step at the Vdd = 1.0 V corner; the
        horizon is stretched automatically at low voltage so enough
        edges land inside the window.
    """
    volts = list(voltages) if voltages is not None else sorted(TABLE_5_1, reverse=True)
    if not any(v in TABLE_5_1 for v in volts):
        raise ValueError(
            f"none of the swept voltages {volts} is a Table 5.1 level "
            f"{sorted(TABLE_5_1, reverse=True)}: nothing to compare against"
        )
    p = params or RING_CALIBRATION

    def horizon(vdd: float) -> float:
        if vdd <= p.vth:
            raise ValueError(f"vdd {vdd} V at or below threshold {p.vth} V")
        stretch = max(1.0, (1.0 - p.vth) / (vdd - p.vth)) ** (p.alpha + 1.0)
        stretched = t_stop * stretch
        if stretched / dt > MAX_STEPS:
            raise ValueError(
                f"the horizon at {vdd} V stretches to {stretched / dt:.3g} "
                f"steps, over the budget of {MAX_STEPS:.0e}; sweep further "
                f"above the {p.vth} V threshold"
            )
        return stretched

    # check every level before simulating any of them
    horizons = {vdd: horizon(vdd) for vdd in [*volts, REFERENCE_VDD]}

    def period(vdd: float) -> float:
        result = simulate_inverter_ring(
            n_stages, vdd, p, t_stop=horizons[vdd], dt=dt, record=False
        )
        if result.period is None:
            raise RuntimeError(
                f"ring oscillator failed to settle at {vdd} V; "
                f"increase t_stop"
            )
        return result.period

    periods = {vdd: period(vdd) for vdd in volts}
    # Table 5.1 is normalised to 1.0 V: simulate it even when not swept
    if REFERENCE_VDD in periods:
        ref = periods[REFERENCE_VDD]
    else:
        ref = period(REFERENCE_VDD)
    normalized = {v: p / ref for v, p in periods.items()}
    max_err = max(
        abs(normalized[v] - TABLE_5_1[v]) / TABLE_5_1[v]
        for v in normalized
        if v in TABLE_5_1
    )
    return RingOscillatorSweep(
        periods=periods,
        normalized=normalized,
        published=dict(TABLE_5_1),
        max_rel_error=max_err,
    )
