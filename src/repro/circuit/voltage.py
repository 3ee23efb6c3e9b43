"""Voltage / delay modelling (paper Table 5.1).

The paper characterises nominal clock period versus supply voltage with
HSPICE ring-oscillator simulations at the PTM 22 nm node and reports
the result as Table 5.1:

====  ====  ====  ====  ====  ====  ====
Vdd   1.0   0.92  0.86  0.8   0.72  0.68  0.65
tnom  1.0   1.13  1.27  1.39  1.63  2.21  2.63
====  ====  ====  ====  ====  ====  ====

Two models are provided:

* :class:`Table51Model` -- monotone PCHIP interpolation anchored
  exactly on the published points.  This is the operating-point model
  used by every experiment (the published numbers *are* the ground
  truth we reproduce against).
* :class:`AlphaPowerModel` -- Sakurai-Newton alpha-power-law transistor
  physics, fit to the table.  It backs the mini-SPICE ring-oscillator
  substrate (:mod:`repro.circuit.ring_oscillator`) that *regenerates*
  Table 5.1 from first principles, with the fit error reported in
  EXPERIMENTS.md.

Both expose ``scale(v)``: the nominal-period multiplier at supply
voltage ``v`` relative to ``v = 1.0``.  All gate delays in the library
scale uniformly by this factor -- the same assumption that lets the
paper estimate ``err`` at one sampling voltage and reuse it at others
(Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "TABLE_5_1",
    "VOLTAGE_LEVELS",
    "Table51Model",
    "AlphaPowerModel",
    "fit_alpha_power_model",
]

#: Published voltage -> nominal-period multiplier (paper Table 5.1).
TABLE_5_1: Dict[float, float] = {
    1.0: 1.0,
    0.92: 1.13,
    0.86: 1.27,
    0.8: 1.39,
    0.72: 1.63,
    0.68: 2.21,
    0.65: 2.63,
}

#: The seven discrete voltage levels, highest first (paper Sec. 4.1: Q = 7).
VOLTAGE_LEVELS: Tuple[float, ...] = tuple(sorted(TABLE_5_1, reverse=True))


class Table51Model:
    """Monotone interpolation of Table 5.1 (exact at the anchors).

    ``scale`` is defined on ``[0.65, 1.0]``; queries outside raise, as
    the paper never operates outside the published range.
    """

    def __init__(self) -> None:
        # deferred: numpy and scipy cost ~0.4 s to import and most
        # sessions (cache-warm CLI runs, the Table 5.1 ring sweep, which
        # needs only TABLE_5_1) never build an interpolator
        import numpy as np
        from scipy.interpolate import PchipInterpolator

        volts = np.array(sorted(TABLE_5_1))
        periods = np.array([TABLE_5_1[v] for v in volts])
        self._interp = PchipInterpolator(volts, periods)
        self._vmin = float(volts[0])
        self._vmax = float(volts[-1])

    def scale(self, v: float) -> float:
        """Nominal-period multiplier at supply voltage ``v``."""
        if not (self._vmin - 1e-9 <= v <= self._vmax + 1e-9):
            raise ValueError(
                f"voltage {v} outside the characterised range "
                f"[{self._vmin}, {self._vmax}]"
            )
        return float(self._interp(v))

    def levels(self) -> Tuple[float, ...]:
        return VOLTAGE_LEVELS

    def table(self) -> Dict[float, float]:
        return dict(TABLE_5_1)


@dataclass(frozen=True)
class AlphaPowerModel:
    """Sakurai-Newton alpha-power-law delay model.

    Gate delay is proportional to ``C * V / I_on`` with on-current
    ``I_on ~ (V - Vth)^alpha``, hence the normalised period multiplier

    ``scale(v) = (v / v_ref) * ((v_ref - vth) / (v - vth))**alpha``.

    Attributes
    ----------
    vth:
        Effective threshold voltage (V).
    alpha:
        Velocity-saturation exponent (~1.2-1.5 at 22 nm).
    v_ref:
        Reference supply at which ``scale`` is 1.0.
    """

    vth: float
    alpha: float
    v_ref: float = 1.0

    def scale(self, v: float) -> float:
        if v <= self.vth:
            raise ValueError(
                f"supply {v} V at or below threshold {self.vth} V: no drive"
            )
        ratio = (self.v_ref - self.vth) / (v - self.vth)
        return (v / self.v_ref) * ratio**self.alpha

    def on_current(self, v: float, k: float = 1.0) -> float:
        """Saturation drive current ``k * (v - vth)^alpha`` (arbitrary A)."""
        if v <= self.vth:
            return 0.0
        return k * (v - self.vth) ** self.alpha

    def table_error(self) -> float:
        """Maximum relative error of this model against Table 5.1."""
        errs = [
            abs(self.scale(v) - t) / t for v, t in TABLE_5_1.items()
        ]
        return max(errs)


def fit_alpha_power_model(v_ref: float = 1.0) -> AlphaPowerModel:
    """Least-squares fit of the alpha-power law to Table 5.1.

    Minimises squared log-error over (vth, alpha); deterministic
    (Nelder-Mead from a physical initial point).
    """
    import numpy as np
    from scipy.optimize import minimize

    volts = np.array(sorted(TABLE_5_1))
    target = np.log(np.array([TABLE_5_1[v] for v in volts]))

    def loss(params: np.ndarray) -> float:
        vth, alpha = params
        if not (0.05 < vth < volts[0] - 0.02) or not (0.5 < alpha < 3.0):
            return 1e9
        model = AlphaPowerModel(vth=float(vth), alpha=float(alpha), v_ref=v_ref)
        pred = np.log(np.array([model.scale(v) for v in volts]))
        return float(np.sum((pred - target) ** 2))

    res = minimize(loss, x0=np.array([0.42, 1.3]), method="Nelder-Mead")
    vth, alpha = res.x
    return AlphaPowerModel(vth=float(vth), alpha=float(alpha), v_ref=v_ref)
