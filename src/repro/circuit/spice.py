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

**Period-only mode.**  ``record=False`` skips the ``(n_stages,
n_steps)`` sample buffer and returns only the period; Table 5.1 needs
nothing else.  It is the same loop with the sample write switched
off, so the period is the one a recording run measures.

**Rail fast paths.**  The clip puts nodes exactly on the rails.  In
the Table 5.1 sweep (1,216,055 stage updates: 243,211 steps of a
5-stage ring) 38.3 % of updates are skipped, 23.0 % have an input on
a rail, 38.8 % call ``pow`` and 24.4 % have the rolloff clamped to
1.0.  Two shortcuts make rail updates cheap without changing a bit:

* An input exactly on a rail gives the same overdrive on either
  branch: ``vdd - vth`` when it is high, and ``(vdd - 0.0) - vth``,
  the same float, when it is low.  So the saturation current
  ``k * (vdd - vth)**alpha`` is computed once per run, not per step.
* An output already on the rail its input drives it to has a rolloff
  of exactly 0, so its current is +0.0 or -0.0 (for a finite drive
  current).  The Euler step then adds a zero to the rail voltage and
  the clip keeps it, so the update is skipped.  The same holds for a
  stage with no overdrive (at a low supply, an input near Vdd/2 turns
  neither device on), whose current is 0.0 by definition.  Node
  voltages are never -0.0, so adding a zero returns them unchanged.

**Operations whose result is known.**  A stage that does update
still rounds every operation of the array form, ``x + i * r / C *
dt`` then the clip, except those whose result its branch fixes:

* The pull-down current is ``-i`` with ``i = k * (v_in - vth) **
  alpha``.  Rounding is symmetric in sign, so ``(-i) * r / C * dt``
  is ``-(i * r / C * dt)`` and ``x + (-y)`` is ``x - y``: the loop
  subtracts ``i * r / C * dt`` and never negates.
* The rolloff is tested against 1.0 once.  Where it would be clamped
  to 1.0 the step is ``i / C * dt``, since ``i * 1.0`` is ``i``; for
  an input on a rail that is ``rail_step``, computed once per run.
* A pull-down stage is entered only with its output in (0, vdd] and
  only falls, a pull-up stage only with its output in [0, vdd) and
  only rises (``k``, ``C`` and ``dt`` are positive and finite).  So
  the rolloff is positive, its clamp at 0 never binds, and only the
  clip at the destination rail can.

**The period without numpy.**  The period is the mean of the
rising-edge intervals after the first, as ``float(np.mean(...))``
computes it: ``np.add.reduce`` starts from 0.0 and adds numpy's
pairwise sum of the intervals, which is then divided by their count.
:func:`mean` replays that sum in the same order (fewer than 8 values
added in turn; eight strided accumulators up to 128; above that, a
split at half the length rounded down to a multiple of 8), so a
period-only run imports no numpy and matches the array form under
``float.hex``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["InverterParams", "TransientResult", "mean", "simulate_inverter_ring"]

#: Width (V) of the linear rolloff band next to each rail.
LINEAR_BAND = 0.05

#: numpy's pairwise-summation block: up to this many values are summed
#: with eight strided accumulators, longer runs are split in two.
_PAIRWISE_BLOCK = 128

_INF = float("inf")


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
    """Waveforms and measurements from a transient run.

    ``time`` and ``waveforms`` are ``None`` for a period-only run
    (``record=False``).
    """

    time: Optional[np.ndarray]
    waveforms: Optional[np.ndarray]  # shape (n_nodes, n_steps)
    period: Optional[float]  # measured oscillation period, None if none

    def node_waveform(self, node: int) -> np.ndarray:
        if self.waveforms is None:
            raise ValueError("period-only run (record=False) kept no waveforms")
        return self.waveforms[node]


def _pairwise_sum(xs: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``xs[lo:lo + n]``, in its order."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += xs[i]
        return res
    if n <= _PAIRWISE_BLOCK:
        r = list(xs[lo:lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += xs[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += xs[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(xs, lo, n2) + _pairwise_sum(xs, lo + n2, n - n2)


def mean(xs: Sequence[float]) -> float:
    """``float(np.mean(xs))`` of a non-empty float sequence, bit for
    bit, without numpy."""
    return (0.0 + _pairwise_sum(xs, 0, len(xs))) / len(xs)


def simulate_inverter_ring(
    n_stages: int,
    vdd: float,
    params: InverterParams | None = None,
    t_stop: float = 2.0e-9,
    dt: float = 1.0e-13,
    *,
    record: bool = True,
) -> TransientResult:
    """Transient-simulate an ``n_stages``-inverter ring oscillator.

    ``n_stages`` must be odd for oscillation.  Returns waveforms and
    the measured steady-state period (averaged over the last few
    rising-edge crossings of node 0, skipping start-up).  With
    ``record=False`` only the period is measured: no waveforms are
    kept and numpy is not imported.
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError("ring oscillator needs an odd stage count >= 3")
    p = params or InverterParams()
    if vdd <= p.vth:
        raise ValueError(f"vdd {vdd} V at or below threshold {p.vth} V")
    # the loop's skipped clamps assume every step moves a node inside
    # [0, vdd] towards the rail its input drives it to
    positive = {"vdd": vdd, "k_drive": p.k_drive, "cap": p.cap, "dt": dt}
    for name, value in positive.items():
        if not 0.0 < value < _INF:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if p.alpha != p.alpha:
        raise ValueError("alpha must be a number, got nan")

    n_steps = int(t_stop / dt)
    # Seed an asymmetric initial state so oscillation starts immediately.
    v = [vdd if i % 2 else 0.0 for i in range(n_stages)]
    v[0] = vdd * 0.25

    samples = array("d")  # step-major: all stages of a step are adjacent
    crossings: List[float] = []
    half = vdd / 2.0
    vth, alpha, k_drive, cap = p.vth, p.alpha, p.k_drive, p.cap
    # saturation current of a stage whose input sits on either rail
    rail_drive = k_drive * (vdd - vth) ** alpha
    # its Euler step when the rolloff is clamped to 1.0
    rail_step = rail_drive / cap * dt
    stages = range(n_stages)
    prev_v0 = v[0]

    for step in range(n_steps):
        v_in = v[-1]  # stage 0 is driven by the last stage
        # Nodes update in place; ``v_in`` carries each stage's input,
        # the previous stage's voltage before this step.
        for i in stages:
            v_out = v[i]
            # Net current charging this stage's output: NMOS pulls down
            # when the input is high, PMOS pulls up when it is low;
            # overdrive follows the alpha-power law with a linear
            # rolloff within LINEAR_BAND of the destination rail (crude
            # triode region) so integration terminates at the rails.
            # A stage with no overdrive, or whose output is already on
            # its destination rail, draws a zero current: its node is
            # left as it is.
            if v_in >= half:
                if v_out != 0.0 and v_in > vth:  # exactly when v_in - vth > 0.0
                    # v_out is in (0, vdd]: the rolloff is positive and
                    # the node only falls, so only the 0 V clip binds
                    rolloff = v_out / LINEAR_BAND
                    if rolloff < 1.0:
                        if v_in == vdd:
                            current = rail_drive
                        else:
                            current = k_drive * (v_in - vth) ** alpha
                        x = v_out - current * rolloff / cap * dt
                    elif v_in == vdd:
                        x = v_out - rail_step
                    else:
                        x = v_out - k_drive * (v_in - vth) ** alpha / cap * dt
                    v[i] = x if x > 0.0 else 0.0
            elif v_out != vdd:
                overdrive = (vdd - v_in) - vth
                if overdrive > 0.0:
                    # v_out is in [0, vdd): the rolloff is positive and
                    # the node only rises, so only the vdd clip binds
                    rolloff = (vdd - v_out) / LINEAR_BAND
                    if rolloff < 1.0:
                        if v_in == 0.0:
                            current = rail_drive
                        else:
                            current = k_drive * overdrive**alpha
                        x = v_out + current * rolloff / cap * dt
                    elif v_in == 0.0:
                        x = v_out + rail_step
                    else:
                        x = v_out + k_drive * overdrive**alpha / cap * dt
                    v[i] = x if x < vdd else vdd
            v_in = v_out
        if record:
            samples.extend(v)
        v0 = v[0]
        if prev_v0 < half <= v0:
            # linear interpolation of the rising-edge crossing instant
            frac = (half - prev_v0) / (v0 - prev_v0)
            crossings.append((step - 1 + frac) * dt)
        prev_v0 = v0

    period: Optional[float] = None
    if len(crossings) >= 4:
        # Skip the first edges (start-up transient), average the rest.
        period = mean([b - a for a, b in zip(crossings[1:], crossings[2:])])
    if not record:
        return TransientResult(time=None, waveforms=None, period=period)

    import numpy as np

    waveforms = np.frombuffer(samples).reshape(n_steps, n_stages).T
    times = np.arange(n_steps) * dt
    return TransientResult(time=times, waveforms=waveforms, period=period)
