#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures_cold --seed 3 \\
        --seconds 15 --trace 0

Every regeneration is a fresh ``perfbench/child.py`` process, timed
from outside with its imports counted; the load is one client doing
one regeneration at a time (a closed loop, concurrency 1).  Set-up
runs first, :data:`SETUP_REPEATS` times, and ``setup_s`` is its
median; then timed runs repeat until ``--seconds`` have passed, and
every run's outputs are checked against reference digests
(:mod:`perfbench.checks`).

Times are normalised to machine speed.  A shared machine's speed can
drift by half within a minute, and whole runs drift with it, so each
timed run (and each set-up) is bracketed by runs of a fixed
calibration process that uses no ``repro`` code, and every time is
reported as ``measured * CALIBRATION_REFERENCE_S / calibration time``,
the calibration time being the mean of the two brackets: seconds on a
machine where the calibration takes :data:`CALIBRATION_REFERENCE_S`.
The run record keeps the raw times too.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics, from one
traced run after the untraced ones.  A record of the run with an
environment record beside it is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, tracer  # noqa: E402

WORK = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: At least this many timed runs, however long they take.
MIN_RUNS = 3
#: A child process running longer than this is killed, and fails.
CHILD_TIMEOUT_S = 120.0
#: Loopback workers of ``figures_remote``: one per core of a 2-core box.
REMOTE_WORKERS = 2
#: The calibration process: a fixed amount of interpreter and import
#: work, independent of the code under test.
CALIBRATION = (
    "import numpy\n"
    "total = 0\n"
    "for i in range(800_000):\n"
    "    total += i * i % 7\n"
)
#: Calibration seconds on the reference machine speed.
CALIBRATION_REFERENCE_S = 0.25
#: Variables that would change what a child computes or whom it trusts.
_SCRUBBED_ENV = ("REPRO_BOOTSTRAP", "REPRO_WORKER_TOKEN", inputs.SYNTH_ENV)


@dataclass(frozen=True)
class Workload:
    """What a workload runs and what its set-up prepares."""

    #: ``perfbench/child.py --set`` value
    drivers: str
    #: serve every experiment from a store filled during set-up
    warm: bool = False
    #: dispatch cells to loopback workers started during set-up
    remote: bool = False


WORKLOADS = {
    "table51_cold": Workload("table51"),
    "figures_cold": Workload("figures"),
    "figures_warm": Workload("figures", warm=True),
    "figures_remote": Workload("figures", remote=True),
}


@dataclass
class Proc:
    """Outcome and resource use of one child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    #: ``time.perf_counter()`` just before the launch and after the exit
    launched: float = 0.0
    exited: float = 0.0
    #: machine-speed factor: reference over measured calibration time
    scale: float = 1.0
    #: what ``child.py`` wrote to ``--out`` (``None`` if it failed)
    record: Optional[dict] = None


class BenchError(RuntimeError):
    """Set-up could not complete; the run reports no result."""


def run_process(cmd: List[str], env: Dict[str, str], log: Path) -> Proc:
    """Run ``cmd`` to completion; time it and read its resource usage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        returncode=proc.returncode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        launched=start,
        exited=end,
    )


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources (reference cache key)."""
    digest = hashlib.sha256()
    sources = [
        *(ROOT / "src" / "repro").rglob("*.py"),
        *Path(__file__).resolve().parent.glob("*.py"),
    ]
    for path in sorted(sources):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, seed: int, workload: str) -> Dict[str, object]:
    """Where and with what a result was measured."""
    from importlib import metadata

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit or "unknown",
        "seed": seed,
        "workload": workload,
    }


class Bench:
    """One workload at one seed: set-up, timed runs and teardown."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")])
        )
        self.env.update(inputs.bootstrap_env(seed))
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        self.tally = checks.Tally()
        self.reference: Optional[Dict[str, str]] = None
        self.cache_dir: Optional[Path] = None
        self.workers: list = []
        self.addresses: List[str] = []
        self._runs = 0
        #: latest calibration seconds: the opening bracket of the next span
        self._calibration = 0.0

    def close(self) -> None:
        """Stop the workers and delete the run's files."""
        self._stop_workers()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _stop_workers(self) -> None:
        if self.workers:
            from repro.engine.worker import stop_workers

            stop_workers(self.workers)
            self.workers, self.addresses = [], []

    # -- child processes ----------------------------------------------
    def child(self, trace: bool = False, **options: object) -> Proc:
        """Run ``child.py`` once; ``options`` are its ``--cache-dir`` and
        ``--workers``."""
        self._runs += 1
        out = self.tmp / f"run{self._runs}.json"
        cmd = [
            sys.executable,
            str(ROOT / "perfbench" / "child.py"),
            "--set",
            self.workload.drivers,
            "--seed",
            str(self.seed),
            "--out",
            str(out),
        ]
        if options.get("cache_dir"):
            cmd += ["--cache-dir", str(options["cache_dir"])]
        if options.get("workers"):
            cmd += ["--workers", ",".join(options["workers"])]
        if trace:
            cmd.append("--trace")
        log = self.tmp / f"run{self._runs}.log"
        proc = run_process(cmd, self.env, log)
        if proc.returncode == 0:
            try:
                proc.record = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                proc.record = None
        else:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(
                f"perfbench: child exited {proc.returncode}:\n{tail}",
                file=sys.stderr,
            )
        return proc

    def check(self, proc: Proc) -> bool:
        """Count ``proc`` as attempted; return whether it failed."""
        digests = proc.record["digests"] if proc.record else None
        if self.reference is None and digests is not None:
            # figures_cold at a new seed: its first run is the reference
            self.reference = digests
            self._save_reference(digests)
        failed = self.tally.record(proc.returncode, digests, self.reference)
        if failed and digests is not None and self.reference is not None:
            wrong = checks.mismatches(digests, self.reference)
            print(f"perfbench: outputs differ: {wrong[:8]}", file=sys.stderr)
        return failed

    # -- reference digests --------------------------------------------
    def _reference_path(self) -> Path:
        return (
            WORK
            / "references"
            / f"figures-seed{self.seed}-{code_fingerprint()}.json"
        )

    def _save_reference(self, digests: Dict[str, str]) -> None:
        path = self._reference_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")

    def _reference(self) -> Optional[Dict[str, str]]:
        committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if self.workload.drivers == "table51":
            return committed["table51"]
        if self.seed == inputs.DEFAULT_SEED:
            return committed["figures"]
        path = self._reference_path()
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        if not (self.workload.warm or self.workload.remote):
            return None
        proc = self.child()  # a cold serial run, untimed
        if proc.returncode != 0 or proc.record is None:
            raise BenchError("the cold serial reference run failed")
        self._save_reference(proc.record["digests"])
        return proc.record["digests"]

    def calibrate(self) -> float:
        """Wall seconds of one calibration process, now."""
        proc = run_process(
            [sys.executable, "-c", CALIBRATION],
            self.env,
            self.tmp / "calibration.log",
        )
        if proc.returncode != 0:
            raise BenchError("the calibration process failed")
        return proc.wall_s

    def _scale(self) -> float:
        """Speed factor since the last calibration, which it renews."""
        before, self._calibration = self._calibration, self.calibrate()
        return CALIBRATION_REFERENCE_S * 2 / (before + self._calibration)

    # -- set-up --------------------------------------------------------
    def setup(self) -> float:
        """Prepare the timed runs; return the median set-up seconds."""
        self.reference = self._reference()
        times = []
        self._calibration = self.calibrate()
        for i in range(SETUP_REPEATS):
            seconds = self._list()
            if self.workload.warm:
                seconds += self._fill(self.tmp / f"store{i}")
            if self.workload.remote:
                seconds += self._start_workers()
            times.append(seconds * self._scale())
        return statistics.median(times)

    def _list(self) -> float:
        proc = run_process(
            [sys.executable, "-m", "repro", "list"],
            self.env,
            self.tmp / "list.log",
        )
        if proc.returncode != 0:
            raise BenchError(f"'python -m repro list' exited {proc.returncode}")
        return proc.wall_s

    def _fill(self, cache_dir: Path) -> float:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        proc = self.child(cache_dir=cache_dir)
        if self.check(proc):
            raise BenchError("the run filling the store failed")
        self.cache_dir = cache_dir
        return proc.wall_s

    def _start_workers(self) -> float:
        from repro.engine.worker import start_loopback_workers

        self._stop_workers()
        start = time.perf_counter()
        try:
            self.workers, self.addresses = start_loopback_workers(
                REMOTE_WORKERS,
                extra_env=inputs.bootstrap_env(self.seed),
                extra_paths=[str(ROOT)],
            )
        except RuntimeError as exc:
            raise BenchError(f"loopback workers did not start: {exc}") from exc
        ready = time.perf_counter() - start
        warmup = self.child(workers=self.addresses)
        if self.check(warmup):
            raise BenchError("the remote warm-up run failed")
        return ready + warmup.wall_s

    # -- timed runs ----------------------------------------------------
    def timed(self, trace: bool = False) -> Proc:
        """One timed run; remote workers' CPU is added to the client's."""
        before = sum(process_cpu_s(p.pid) for p in self.workers)
        proc = self.child(
            trace=trace, cache_dir=self.cache_dir, workers=self.addresses
        )
        proc.cpu_s += sum(process_cpu_s(p.pid) for p in self.workers) - before
        proc.scale = self._scale()
        self.check(proc)
        return proc

    def measure(
        self, seconds: float, trace: bool
    ) -> Tuple[List[Proc], Optional[Proc]]:
        """Timed runs for ``seconds``, then the traced run if asked."""
        runs: List[Proc] = []
        laps: List[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            lap = time.perf_counter()
            runs.append(self.timed())
            laps.append(time.perf_counter() - lap)
            # the traced run is slower: leave it room inside the budget
            needed = statistics.median(laps) * (2.5 if trace else 1.0)
            if len(runs) >= MIN_RUNS and time.perf_counter() + needed > deadline:
                break
        return runs, (self.timed(trace=True) if trace else None)


def _save(args, result: dict, setup_s: float, runs, traced) -> None:
    """Write the run record, with its environment record, to WORK."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "result": result,
        "setup_s": setup_s,
        "runs": [
            {
                "returncode": run.returncode,
                "wall_s": run.wall_s,
                "cpu_s": run.cpu_s,
                "rss_mb": run.rss_mb,
                "scale": run.scale,
            }
            for run in runs
        ],
    }
    if traced is not None and traced.record is not None:
        record["traced_wall_s"] = traced.wall_s
        record["trace"] = tracer.bracket(
            traced.record["trace"], traced.launched, traced.exited
        )
    (results / f"{base}.json").write_text(json.dumps(record), encoding="utf-8")
    env = environment(ROOT, args.seed, args.workload)
    (results / f"{base}.env.json").write_text(
        json.dumps(env, indent=2), encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    bench = Bench(args.workload, args.seed)
    try:
        setup_s = bench.setup()
        runs, traced = bench.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    untraced_wall = statistics.median(run.wall_s * run.scale for run in runs)
    if traced is None:
        listed = spec["end_to_end"]
        values = {
            "wall_s": untraced_wall,
            "setup_s": setup_s,
            "cpu_s": statistics.median(run.cpu_s * run.scale for run in runs),
            "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        }
    else:
        if traced.record is None:
            print("perfbench: the traced run failed", file=sys.stderr)
            return 1
        listed = spec["per_layer"]
        values = tracer.select(
            tracer.layer_metrics(
                tracer.bracket(
                    traced.record["trace"], traced.launched, traced.exited
                ),
                traced.wall_s,
                # the untraced median, at the traced run's machine speed
                untraced_wall / traced.scale,
            ),
            [metric["name"] for metric in listed],
        )
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in listed
        },
    }
    _save(args, result, setup_s, runs, traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
