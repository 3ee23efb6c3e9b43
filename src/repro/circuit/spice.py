"""A miniature transient circuit simulator ("HSPICE-lite").

The paper uses HSPICE with the 22 nm Predictive Technology Model to
simulate ring oscillators and extract the clock-period-versus-voltage
table.  We replace it with a small forward-Euler transient simulator of
CMOS inverter chains/rings:

* each node is a capacitor ``C`` to ground;
* each inverter drives its output with a pull-up (PMOS) or pull-down
  (NMOS) current following the Sakurai-Newton alpha-power law
  ``I = k * (Vgs_eff - Vth)^alpha``, with a linear-region rolloff near
  the rail so waveforms settle smoothly;
* the input of each stage is the (analog) output voltage of the
  previous stage, compared against the switching threshold Vdd/2.

This is enough physics to make oscillation period scale with supply
voltage the way Table 5.1 does, which is all the downstream system
consumes.

The step loop works on plain Python floats, not numpy arrays.  A ring
has a handful of stages, so numpy's per-call overhead on 5-element
arrays would dominate the arithmetic; stepping all supply voltages of
a sweep together as one array measured slower still.  The loop keeps
the floating-point operation order of the textbook array form
(current / C * dt added to the node voltage, then clipped to the
rails), so waveforms and periods are bit-identical to it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["InverterParams", "TransientResult", "simulate_inverter_ring"]

#: Width (V) of the linear rolloff band next to each rail.
LINEAR_BAND = 0.05


@dataclass(frozen=True)
class InverterParams:
    """Electrical parameters of one inverter stage.

    Attributes
    ----------
    vth:
        Device threshold voltage (V).
    alpha:
        Alpha-power-law exponent.
    k_drive:
        Drive-strength coefficient (A / V^alpha).
    cap:
        Output node capacitance (F).
    """

    vth: float = 0.42
    alpha: float = 1.3
    k_drive: float = 1.0e-3
    cap: float = 1.0e-15


@dataclass
class TransientResult:
    """Waveforms and measurements from a transient run."""

    time: np.ndarray
    waveforms: np.ndarray  # shape (n_nodes, n_steps)
    period: Optional[float]  # measured oscillation period, None if none

    def node_waveform(self, node: int) -> np.ndarray:
        return self.waveforms[node]


def simulate_inverter_ring(
    n_stages: int,
    vdd: float,
    params: InverterParams | None = None,
    t_stop: float = 2.0e-9,
    dt: float = 1.0e-13,
) -> TransientResult:
    """Transient-simulate an ``n_stages``-inverter ring oscillator.

    ``n_stages`` must be odd for oscillation.  Returns waveforms and
    the measured steady-state period (averaged over the last few
    rising-edge crossings of node 0, skipping start-up).
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError("ring oscillator needs an odd stage count >= 3")
    p = params or InverterParams()
    if vdd <= p.vth:
        raise ValueError(f"vdd {vdd} V at or below threshold {p.vth} V")

    n_steps = int(t_stop / dt)
    # Seed an asymmetric initial state so oscillation starts immediately.
    v = [vdd if i % 2 else 0.0 for i in range(n_stages)]
    v[0] = vdd * 0.25

    # One exact-size sample buffer, filled step-major (all stages of a
    # step are adjacent) and exposed transposed at the end.
    samples = array("d", [0.0]) * (n_steps * n_stages)
    crossings: List[float] = []
    half = vdd / 2.0
    vth, alpha, k_drive, cap = p.vth, p.alpha, p.k_drive, p.cap
    prev_v0 = v[0]
    pos = 0

    for step in range(n_steps):
        new_v = []
        v_in = v[-1]  # stage 0 is driven by the last stage
        for v_out in v:
            # Net current charging this stage's output: NMOS pulls down
            # when the input is high, PMOS pulls up when it is low;
            # overdrive follows the alpha-power law with a linear
            # rolloff within LINEAR_BAND of the destination rail (crude
            # triode region) so integration terminates at the rails.
            if v_in >= half:
                overdrive = v_in - vth
                if overdrive <= 0.0:
                    current = 0.0
                else:
                    rolloff = v_out / LINEAR_BAND
                    rolloff = rolloff if rolloff > 0.0 else 0.0
                    rolloff = rolloff if rolloff < 1.0 else 1.0
                    current = -(k_drive * overdrive**alpha) * rolloff
            else:
                overdrive = (vdd - v_in) - vth
                if overdrive <= 0.0:
                    current = 0.0
                else:
                    rolloff = (vdd - v_out) / LINEAR_BAND
                    rolloff = rolloff if rolloff > 0.0 else 0.0
                    rolloff = rolloff if rolloff < 1.0 else 1.0
                    current = (k_drive * overdrive**alpha) * rolloff
            # forward-Euler step, clamped to the rails like np.clip
            x = v_out + current / cap * dt
            x = x if x > 0.0 else 0.0
            x = x if x < vdd else vdd
            new_v.append(x)
            samples[pos] = x
            pos += 1
            v_in = v_out
        v = new_v
        v0 = v[0]
        if prev_v0 < half <= v0:
            # linear interpolation of the rising-edge crossing instant
            frac = (half - prev_v0) / (v0 - prev_v0)
            crossings.append((step - 1 + frac) * dt)
        prev_v0 = v0

    waveforms = np.frombuffer(samples).reshape(n_steps, n_stages).T
    times = np.arange(n_steps) * dt
    period: Optional[float] = None
    if len(crossings) >= 4:
        # Skip the first edges (start-up transient), average the rest.
        diffs = np.diff(crossings[1:])
        if len(diffs) > 0:
            period = float(np.mean(diffs))
    return TransientResult(time=times, waveforms=waveforms, period=period)
