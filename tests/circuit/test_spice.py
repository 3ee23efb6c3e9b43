"""Tests for the mini-SPICE transient simulator and ring oscillator."""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import repro.circuit.ring_oscillator as ring_oscillator
from repro.circuit.ring_oscillator import RING_CALIBRATION, sweep_ring_oscillator
from repro.circuit.spice import InverterParams, mean, simulate_inverter_ring
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

    @pytest.mark.parametrize(
        "vdd, params, dt, name",
        [
            (-0.1, InverterParams(vth=-0.5), 1.0e-13, "vdd"),
            (1.0, InverterParams(k_drive=0.0), 1.0e-13, "k_drive"),
            (1.0, InverterParams(cap=float("inf")), 1.0e-13, "cap"),
            (1.0, InverterParams(), -1.0e-13, "dt"),
        ],
    )
    def test_nonpositive_or_infinite_quantities_rejected(self, vdd, params, dt, name):
        """Every step must move a node inside [0, vdd] towards a rail."""
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            simulate_inverter_ring(3, vdd, params, t_stop=1.0e-11, dt=dt)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha must be a number"):
            simulate_inverter_ring(3, 1.0, InverterParams(alpha=float("nan")))

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

    def test_period_only_run_keeps_no_waveforms(self):
        res = simulate_inverter_ring(
            5, 1.0, RING_CALIBRATION, t_stop=1.5e-9, record=False
        )
        assert res.period is not None
        assert res.time is None and res.waveforms is None
        with pytest.raises(ValueError, match="record=False"):
            res.node_waveform(0)


def _hex(x: Optional[float]) -> Optional[str]:
    return None if x is None else float(x).hex()


#: Where numpy's pairwise sum changes strategy: fewer than 8 values,
#: one block of 8 accumulators (up to 128), then recursive splits.
_MEAN_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 256, 257, 600)

#: Mixed signs and magnitudes (zeros of both signs and subnormals
#: included), plus values shaped like rising-edge intervals.
_mean_values = st.one_of(
    st.floats(-1.0e30, 1.0e30),
    st.floats(-1.0, 1.0),
    st.floats(1.0e-12, 1.0e-10),
)


class TestMean:
    """``spice.mean`` is ``float(np.mean(...))`` without numpy."""

    @pytest.mark.parametrize("n", _MEAN_LENGTHS)
    # a fixed-length list has no small example to shrink towards, and
    # shrinking 600 values takes minutes: report the failing draw as is
    @settings(
        max_examples=10,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.large_base_example],
    )
    @given(data=st.data())
    def test_strategy_boundaries_match_numpy(self, n, data):
        xs = data.draw(st.lists(_mean_values, min_size=n, max_size=n))
        assert mean(xs).hex() == float(np.mean(np.asarray(xs))).hex()

    @pytest.mark.parametrize("n", _MEAN_LENGTHS)
    def test_reduction_starts_from_positive_zero(self, n):
        xs = [-0.0] * n
        assert mean(xs).hex() == float(np.mean(np.asarray(xs))).hex() == "0x0.0p+0"

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(_mean_values, min_size=1, max_size=600))
    def test_any_length_matches_numpy(self, xs):
        assert mean(xs).hex() == float(np.mean(np.asarray(xs))).hex()


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
    # The Table 5.1 device at 1.0 V: most updates with an input on a
    # rail have their rolloff clamped, so they step by ``rail_step``.
    @example(
        case=dict(
            n_stages=9, vdd=1.0, params=RING_CALIBRATION, t_stop=3.0e-10, dt=2.0e-13
        )
    )
    # ... and at 0.65 V, where a rail input with its rolloff below 1.0
    # drives a stage for hundreds of steps.
    @example(
        case=dict(
            n_stages=5, vdd=0.65, params=RING_CALIBRATION, t_stop=3.0e-10, dt=2.0e-13
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
        assert _hex(res.period) == _hex(period)
        assert _hex(simulate_inverter_ring(**case, record=False).period) == _hex(period)
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

    def test_partial_sweep_normalises_to_one_volt(self, ring_sweep):
        """Without 1.0 V in the sweep, periods are still normalised to
        it, as the published table is."""
        sub = sweep_ring_oscillator(voltages=[0.92, 0.8])
        assert list(sub.periods) == [0.92, 0.8]
        for vdd in (0.92, 0.8):
            assert sub.periods[vdd] == ring_sweep.periods[vdd]
            assert sub.normalized[vdd] == ring_sweep.normalized[vdd]
        assert sub.max_rel_error == max(
            abs(ring_sweep.normalized[v] - TABLE_5_1[v]) / TABLE_5_1[v]
            for v in (0.92, 0.8)
        )

    def test_sweep_without_a_published_level_rejected(self):
        with pytest.raises(ValueError, match="Table 5.1 level"):
            sweep_ring_oscillator(voltages=[0.9])

    def test_threshold_voltage_rejected_before_any_simulation(self, monkeypatch):
        """The horizon stretch divides by vdd - vth: a level on the
        threshold is refused up front, with the simulator's wording."""
        calls = []
        monkeypatch.setattr(
            ring_oscillator, "simulate_inverter_ring", lambda *a, **k: calls.append(a)
        )
        with pytest.raises(ValueError, match="vdd 0.52 V at or below threshold 0.52 V"):
            sweep_ring_oscillator(voltages=[1.0, 0.52])
        assert calls == []

    def test_step_budget_rejected_before_any_simulation(self, monkeypatch):
        """Just above the threshold the stretched horizon needs ~7.4e10
        steps: refused, naming the level and its step count."""
        calls = []
        monkeypatch.setattr(
            ring_oscillator, "simulate_inverter_ring", lambda *a, **k: calls.append(a)
        )
        with pytest.raises(ValueError, match=r"0\.5201 V stretches to 7\.4e\+10 steps"):
            sweep_ring_oscillator(voltages=[1.0, 0.5201])
        assert calls == []
