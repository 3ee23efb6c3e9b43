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

**Two cores, one fork.**  The seven runs (six levels and the 1.0 V
reference) are independent and each returns one float, so the sweep
splits them into two halves of nearly equal step count (greedily,
longest run first: 121,215 and 121,996 steps at the defaults).  A
forked child simulates one half while the parent simulates the other;
the child writes its periods to a pipe and leaves through
``os._exit``, so it runs no exit handlers and flushes no buffered
output it inherited.  The parent reaps it on every path, and kills
it first when its own half raises.  Every period is the float a
serial run computes.  The parent walks the levels in sweep order and
raises "failed to settle" for the first one without a period, as a
serial run does; if the child failed, the parent simulates the
child's levels itself on that walk, so it raises what a serial run
raises.  The periods travel as ``float.hex`` text
(``-`` for "no period"), which is exact and needs no ``pickle`` or
``multiprocessing`` import: on a 2-core x86_64 box without bytecode
caches, importing a process pool took about 20 ms, three times the
whole ring run at 1.0 V.

The sweep stays serial, in one process, when ``os.fork`` is missing,
when the process may run on fewer than two CPUs
(``os.sched_getaffinity``), when only one level is left to simulate,
or when the process has more than one OS thread (``/proc/self/task``):
forking a threaded process can copy a lock another thread holds, and
Python 3.12 warns about it.  A plain ``import numpy`` starts an
OpenBLAS thread; the CLI caps it, so ``python -m repro run table_5_1``
stays single-threaded and takes the split.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .spice import InverterParams, check_ring_inputs, simulate_inverter_ring
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
        check_ring_inputs(n_stages, vdd, p, t_stop, dt)
        stretch = max(1.0, (1.0 - p.vth) / (vdd - p.vth)) ** (p.alpha + 1.0)
        stretched = t_stop * stretch
        if stretched / dt > MAX_STEPS:
            raise ValueError(
                f"the horizon at {vdd} V stretches to {stretched / dt:.3g} "
                f"steps, over the budget of {MAX_STEPS:.0e}; sweep further "
                f"above the {p.vth} V threshold"
            )
        return stretched

    # check every level before simulating any of them; Table 5.1 is
    # normalised to 1.0 V, so it is simulated even when not swept
    horizons = {vdd: horizon(vdd) for vdd in [*volts, REFERENCE_VDD]}

    def period(vdd: float) -> Optional[float]:
        return simulate_inverter_ring(
            n_stages, vdd, p, t_stop=horizons[vdd], dt=dt, record=False
        ).period

    found = _fork_periods(period, {v: h / dt for v, h in horizons.items()})
    settled: Dict[float, float] = {}
    for vdd in horizons:  # a level not found yet is simulated here, in order
        value = found[vdd] if vdd in found else period(vdd)
        if value is None:
            raise RuntimeError(
                f"ring oscillator failed to settle at {vdd} V; "
                f"increase t_stop"
            )
        settled[vdd] = value
    periods = {vdd: settled[vdd] for vdd in volts}
    ref = settled[REFERENCE_VDD]
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


def _can_fork() -> bool:
    """Whether forking a second simulator can use a spare CPU safely."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    try:
        if len(os.sched_getaffinity(0)) < 2:
            return False
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork_periods(
    period: Callable[[float], Optional[float]], steps: Dict[float, float]
) -> Dict[float, Optional[float]]:
    """``period`` of the levels of ``steps`` (level -> step count), half
    of them computed in a forked child while this process computes the
    other half.  The levels left out are the caller's to simulate: all
    of them when the sweep should stay serial, the child's half when
    the child failed."""
    if len(steps) < 2 or not _can_fork():
        return {}
    halves: List[List[float]] = [[], []]
    loads = [0.0, 0.0]
    for vdd in sorted(steps, key=steps.__getitem__, reverse=True):
        half = 0 if loads[0] <= loads[1] else 1
        halves[half].append(vdd)
        loads[half] += steps[vdd]
    theirs, ours = halves
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: stay serial
        os.close(read_fd)
        os.close(write_fd)
        return {}
    if pid == 0:  # the child: compute its half, write it, leave
        status = 1
        try:
            os.close(read_fd)
            words = []
            for vdd in theirs:
                value = period(vdd)
                words.append("-" if value is None else value.hex())
            with open(write_fd, "w", encoding="ascii") as pipe:
                pipe.write(" ".join(words))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, encoding="ascii") as pipe:
            found = {vdd: period(vdd) for vdd in ours}
            words = pipe.read().split()
    except BaseException:  # the parent's half raised: stop the child
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status == 0 and len(words) == len(theirs):
        found.update(
            (vdd, None if word == "-" else float.fromhex(word))
            for vdd, word in zip(theirs, words)
        )
    return found
