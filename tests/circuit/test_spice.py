"""Tests for the mini-SPICE transient simulator and ring oscillator."""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit.ring_oscillator import RING_CALIBRATION
from repro.circuit.spice import InverterParams, simulate_inverter_ring
from repro.circuit.voltage import TABLE_5_1


class TestTransient:
    def test_ring_oscillates(self):
        res = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=1.5e-9)
        assert res.period is not None
        assert res.period > 0

    def test_even_stage_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_inverter_ring(4, 1.0)

    def test_subthreshold_supply_rejected(self):
        with pytest.raises(ValueError):
            simulate_inverter_ring(5, 0.3, InverterParams(vth=0.5))

    def test_waveforms_bounded_by_rails(self):
        res = simulate_inverter_ring(5, 0.9, RING_CALIBRATION, t_stop=1.0e-9)
        assert res.waveforms.min() >= 0.0
        assert res.waveforms.max() <= 0.9 + 1e-12

    def test_lower_voltage_slower(self):
        hi = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=1.5e-9)
        lo = simulate_inverter_ring(5, 0.8, RING_CALIBRATION, t_stop=3.0e-9)
        assert lo.period > hi.period

    def test_more_stages_longer_period(self):
        small = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=2.0e-9)
        big = simulate_inverter_ring(9, 1.0, RING_CALIBRATION, t_stop=2.0e-9)
        assert big.period > small.period


def _reference_drive_current(v_in, v_out, vdd, p):
    """Net current charging one inverter's output (reference form)."""
    linear_band = 0.05
    if v_in >= vdd / 2.0:
        overdrive = v_in - p.vth
        if overdrive <= 0.0:
            return 0.0
        i_sat = p.k_drive * overdrive**p.alpha
        rolloff = min(1.0, max(0.0, v_out / linear_band))
        return -i_sat * rolloff
    overdrive = (vdd - v_in) - p.vth
    if overdrive <= 0.0:
        return 0.0
    i_sat = p.k_drive * overdrive**p.alpha
    rolloff = min(1.0, max(0.0, (vdd - v_out) / linear_band))
    return i_sat * rolloff


def _reference_ring(n_stages, vdd, p, t_stop, dt):
    """The textbook numpy form of the forward-Euler ring: one array
    update and ``np.clip`` per step.  The simulator's scalar loop must
    reproduce it bit for bit."""
    n_steps = int(t_stop / dt)
    v = np.zeros(n_stages)
    for i in range(n_stages):
        v[i] = vdd if i % 2 else 0.0
    v[0] = vdd * 0.25

    waveforms = np.empty((n_stages, n_steps))
    times = np.arange(n_steps) * dt
    crossings: List[float] = []
    half = vdd / 2.0
    prev_v0 = v[0]
    for step in range(n_steps):
        dv = np.empty(n_stages)
        for i in range(n_stages):
            v_in = v[(i - 1) % n_stages]
            dv[i] = _reference_drive_current(v_in, v[i], vdd, p) / p.cap
        v = np.clip(v + dv * dt, 0.0, vdd)
        waveforms[:, step] = v
        if prev_v0 < half <= v[0]:
            frac = (half - prev_v0) / (v[0] - prev_v0)
            crossings.append((step - 1 + frac) * dt)
        prev_v0 = v[0]

    period: Optional[float] = None
    if len(crossings) >= 4:
        diffs = np.diff(crossings[1:])
        if len(diffs) > 0:
            period = float(np.mean(diffs))
    return times, waveforms, period


@st.composite
def _ring_cases(draw):
    params = draw(st.sampled_from([RING_CALIBRATION, InverterParams()]))
    return dict(
        n_stages=draw(st.sampled_from([3, 5, 7, 9])),
        vdd=draw(st.floats(params.vth, 1.1, exclude_min=True)),
        params=params,
        t_stop=draw(st.floats(2.0e-11, 3.0e-10)),
        dt=draw(st.sampled_from([1.0e-13, 2.0e-13])),
    )


class TestReferenceEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(case=_ring_cases())
    @example(
        case=dict(
            n_stages=5, vdd=1.0, params=RING_CALIBRATION, t_stop=3.0e-10, dt=2.0e-13
        )
    )
    @example(
        case=dict(
            n_stages=3,
            vdd=0.4200001,
            params=InverterParams(),
            t_stop=5.0e-11,
            dt=1.0e-13,
        )
    )
    def test_scalar_loop_matches_numpy_reference(self, case):
        res = simulate_inverter_ring(**case)
        times, waveforms, period = _reference_ring(
            case["n_stages"], case["vdd"], case["params"], case["t_stop"], case["dt"]
        )
        assert res.period == period
        assert np.array_equal(res.time, times)
        assert res.waveforms.shape == waveforms.shape
        assert np.array_equal(res.waveforms, waveforms)
        assert res.waveforms.min() >= 0.0
        assert res.waveforms.max() <= case["vdd"]


class TestRingSweep:
    """Checks on the session-wide default sweep (``ring_sweep``)."""

    def test_regenerates_table_5_1(self, ring_sweep):
        """Table 5.1 regeneration: calibrated worst-case ~8 %, bound 12 %."""
        assert ring_sweep.max_rel_error < 0.12

    def test_normalised_reference_is_unity(self, ring_sweep):
        assert ring_sweep.normalized[1.0] == pytest.approx(1.0)

    def test_monotone_in_voltage(self, ring_sweep):
        volts = sorted(ring_sweep.normalized, reverse=True)
        periods = [ring_sweep.normalized[v] for v in volts]
        assert all(a <= b + 1e-12 for a, b in zip(periods, periods[1:]))

    def test_rows_cover_published_table(self, ring_sweep):
        rows = ring_sweep.rows()
        assert len(rows) == len(TABLE_5_1)
        assert rows[0][0] == 1.0
