"""The ring sweep's two-process split, checked in fresh interpreters.

The test session has imported numpy, so it may run more than one OS
thread and then takes the serial path.  Every check here runs in a
fresh interpreter that imports only the ring simulator: one thread,
so ``sweep_ring_oscillator`` forks.  Pinning the interpreter to one
CPU forces the serial path, which is the reference for the split.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2
    or not os.path.isdir("/proc/self/task"),
    reason="the split needs fork, two usable CPUs and /proc/self/task",
)

#: Counts the sweep's forks and runs a callable split, then serial.
_PRELUDE = textwrap.dedent(
    """
    import json, os, sys
    import repro.circuit.ring_oscillator as ring_oscillator
    from repro.circuit.ring_oscillator import sweep_ring_oscillator

    forks = []
    _fork = os.fork

    def counting_fork():
        pid = _fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = counting_fork

    simulated = []  # levels this process simulated, not its child
    _simulate = ring_oscillator.simulate_inverter_ring

    def counting_simulate(n_stages, vdd, *args, **kwargs):
        simulated.append(vdd)
        return _simulate(n_stages, vdd, *args, **kwargs)

    ring_oscillator.simulate_inverter_ring = counting_simulate

    def no_child_left():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    def serially(call):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            return call()
        finally:
            os.sched_setaffinity(0, cpus)

    def outcome(call):
        try:
            sweep = call()
        except Exception as exc:
            return {"raised": [type(exc).__name__, str(exc)]}
        return {
            "periods": {str(v): p.hex() for v, p in sweep.periods.items()},
            "normalized": {str(v): p.hex() for v, p in sweep.normalized.items()},
            "max_rel_error": sweep.max_rel_error.hex(),
        }

    def split_and_serial(call):
        before = len(forks)
        del simulated[:]
        split = outcome(call)
        split_forks = len(forks) - before
        split_simulated = len(simulated)
        split_reaped = no_child_left()
        serial = outcome(lambda: serially(call))
        return {
            "split": split,
            "serial": serial,
            "split_forks": split_forks,
            "serial_forks": len(forks) - before - split_forks,
            "no_child_left": split_reaped and no_child_left(),
            "simulated_here": [split_simulated, len(simulated) - split_simulated],
        }
    """
)


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``_PRELUDE`` then ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    # block-buffered stdout, so the child inherits unwritten output
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PRELUDE + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _report(code: str) -> dict:
    """The JSON the code prints last, after the interpreter's stderr
    was checked empty (a child that failed would have said so)."""
    proc = _python(code)
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("voltages", [None, [0.92, 0.8]], ids=["default", "partial"])
def test_split_sweep_is_bit_identical_to_serial(voltages):
    """The default sweep and one without 1.0 V (simulated only for the
    normalisation): one fork, no child left, the serial floats."""
    report = _report(
        f"""
        print(json.dumps(split_and_serial(
            lambda: sweep_ring_oscillator(voltages={voltages!r}))))
        """
    )
    assert report["split"] == report["serial"]
    assert "periods" in report["split"]
    assert report["split_forks"] == 1
    assert report["serial_forks"] == 0
    assert report["no_child_left"]
    # the parent simulated only its own half
    split_here, serial_here = report["simulated_here"]
    assert 0 < split_here < serial_here


def test_output_buffered_before_the_sweep_is_written_once():
    """The child inherits the parent's unflushed stdout buffer and must
    leave without flushing it."""
    proc = _python(
        """
        print("printed before the sweep")
        sweep_ring_oscillator(voltages=[1.0, 0.92])
        print(len(forks))
        """
    )
    assert proc.stdout == "printed before the sweep\n1\n"


#: Fakes the simulator: ``FAIL`` maps a level to "no period" (it fails
#: to settle) or to an exception the simulator raises there; every
#: other level gets a made-up period.
_FAKE_SIMULATOR = """
from repro.circuit.spice import TransientResult

def fake(n_stages, vdd, params, t_stop, dt, record):
    if vdd in FAIL:
        if FAIL[vdd] is None:
            return TransientResult(time=None, waveforms=None, period=None)
        raise FAIL[vdd]
    return TransientResult(time=None, waveforms=None, period=vdd * 1e-11)

ring_oscillator.simulate_inverter_ring = fake
print(json.dumps(split_and_serial(sweep_ring_oscillator)))
"""


def _unsettled(vdd):
    message = f"ring oscillator failed to settle at {vdd} V; increase t_stop"
    return ["RuntimeError", message]


@pytest.mark.parametrize(
    "fail, raised",
    [
        # 0.65 V is the longest run, so it is in the other half from
        # 0.68 V, the second longest
        ("{0.65: None}", _unsettled(0.65)),
        ("{0.68: None}", _unsettled(0.68)),
        # a serial sweep names the first failing level in sweep order
        ("{0.92: None, 0.68: None}", _unsettled(0.92)),
        ("{0.8: None, 0.65: None}", _unsettled(0.8)),
        ("{0.65: ArithmeticError('at 0.65 V')}", ["ArithmeticError", "at 0.65 V"]),
        ("{0.68: ArithmeticError('at 0.68 V')}", ["ArithmeticError", "at 0.68 V"]),
    ],
    ids=[
        "settle-0.65",
        "settle-0.68",
        "settle-both-halves",
        "settle-0.8-0.65",
        "raise-0.65",
        "raise-0.68",
    ],
)
def test_failure_in_either_half_raises_as_serially(fail, raised):
    """Whichever process meets a failure, the sweep raises what a
    serial sweep raises, forked once and with its child reaped."""
    report = _report(f"FAIL = {fail}\n" + _FAKE_SIMULATOR)
    assert report["serial"] == {"raised": raised}
    assert report["split"] == report["serial"]
    assert report["split_forks"] == 1
    assert report["no_child_left"]


def test_threaded_process_sweeps_serially():
    """A live thread keeps the sweep in one process, so Python 3.12's
    warning about forking a threaded process never fires."""
    proc = _python(
        """
        import threading
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            sweep = sweep_ring_oscillator(voltages=[1.0, 0.92])
        finally:
            stop.set()
            thread.join()
        print(len(forks), sweep.periods[0.92].hex())
        """,
        # "always", not "error": Python 3.12 and 3.13 drop the fork
        # warning silently when a filter turns it into an error
        "-W",
        "always::DeprecationWarning",
    )
    assert proc.stderr == ""
    forks, period = proc.stdout.split()
    assert forks == "0"
    assert float.fromhex(period) > 0.0


def test_cold_cli_table_5_1_forks_once():
    """``python -m repro run table_5_1`` stays single-threaded up to the
    sweep, so it splits: one fork, reaped, and the table unchanged."""
    proc = _python(
        """
        from repro.__main__ import main
        assert main(["run", "table_5_1"]) == 0
        print(len(forks), no_child_left())
        """
    )
    assert proc.stderr == ""
    assert "max relative error : 7.8%" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "1 True"


def test_child_that_dies_leaves_its_half_to_the_parent():
    """A child that exits before it writes costs time, not values: the
    parent simulates the child's levels itself."""
    report = _report(
        """
        parent = os.getpid()
        _counted = ring_oscillator.simulate_inverter_ring

        def dying_in_the_child(n_stages, vdd, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return _counted(n_stages, vdd, *args, **kwargs)

        ring_oscillator.simulate_inverter_ring = dying_in_the_child
        print(json.dumps(split_and_serial(
            lambda: sweep_ring_oscillator(voltages=[1.0, 0.92, 0.8]))))
        """
    )
    assert "periods" in report["split"]
    assert report["split"] == report["serial"]
    assert report["split_forks"] == 1
    assert report["no_child_left"]
    assert report["simulated_here"] == [3, 3]


def test_failed_fork_sweeps_serially_and_closes_the_pipe():
    """A fork refused for want of processes leaves the sweep serial,
    with the pipe it opened closed again."""
    report = _report(
        """
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        os.fork = refused
        fds = len(os.listdir("/proc/self/fd"))
        result = split_and_serial(
            lambda: sweep_ring_oscillator(voltages=[1.0, 0.92, 0.8]))
        result["fds_left"] = len(os.listdir("/proc/self/fd")) - fds
        print(json.dumps(result))
        """
    )
    assert "periods" in report["split"]
    assert report["split"] == report["serial"]
    assert report["split_forks"] == 0
    assert report["simulated_here"] == [3, 3]
    assert report["fds_left"] == 0
