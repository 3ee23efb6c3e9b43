#!/usr/bin/env python3
"""Repeat a workload, summarise it, and compare two sets of runs.

From the repository root::

    # N runs at one seed: every end-to-end metric with its unit,
    # median and quartiles, and the output-check verdict
    python3 perfbench/runs.py figures_cold --seed 3 -n 10

    # the same, alternating with a checkout of the parent commit
    # (parent first in even pairs, this checkout first in odd ones),
    # then the comparison of the two sets
    python3 perfbench/runs.py figures_cold --seed 3 -n 10 --parent ../parent

    # compare two stored sets
    python3 perfbench/runs.py --compare SET_PARENT SET_CHANGE

    # regenerate perfbench/digests.json (only when results change on
    # purpose)
    python3 perfbench/runs.py --write-digests

Each run is ``perfbench/run.py --trace 0`` in the named checkout; its
result line is stored as ``run_NN.json`` in the set directory (default
under ``.perfbench/sets/``), beside ``environment.json``.

The comparison of a change against its parent, per end-to-end metric:
a *gain* needs the change to win at least 9 of every 10 pairs (ties
count for neither side) and the medians to differ by more than the
parent's interquartile range; a *regression* is a median worse than
the parent's by more than the metric's bound in ``BENCHMARK.json``;
a metric whose parent spread is wider than its bound is *unresolved*
unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.inputs import DEFAULT_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` invocation in ``checkout``; its result object."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def values(results: Sequence[dict], name: str) -> List[float]:
    """One metric's values across a set (runs that lack it skipped)."""
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def quartiles(xs: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def summary(results: Sequence[dict]) -> str:
    """Every end-to-end metric plus the output-check verdict."""
    lines = [
        f"{'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'iqr/median':>12}  n"
    ]
    for metric in SPEC["end_to_end"]:
        xs = values(results, metric["name"])
        if not xs:
            lines.append(f"{metric['name']:<14}{metric['unit']:<7}  (no data)")
            continue
        q1, med, q3 = quartiles(xs)
        lines.append(
            f"{metric['name']:<14}{metric['unit']:<7}{med:>12.4f}{q1:>12.4f}"
            f"{q3:>12.4f}{(q3 - q1) / med:>12.4f}  {len(xs)}"
        )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    verdict = "correct" if all(r["correct"] for r in results) else "FAILED"
    lines.append(
        f"output check: {verdict}; failed_frac {failed}/{attempted} = "
        f"{failed / max(attempted, 1):.4f}"
    )
    return "\n".join(lines)


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    lower_is_better: bool,
    bound: float,
) -> str:
    """Verdict for one metric over paired runs (see the module doc)."""

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    if (
        better(c_med, p_med)
        and wins >= 0.9 * len(pairs)
        and abs(c_med - p_med) > q3 - q1
    ):
        return "gain"
    worse = (c_med - p_med) if lower_is_better else (p_med - c_med)
    if worse > bound * p_med:
        return "regression"
    if q3 - q1 > bound * p_med and not all(
        better(c, p) for c in change for p in parent
    ):
        return "unresolved"
    return "no regression"


def compare(parent: Sequence[dict], change: Sequence[dict]) -> str:
    """The comparison table of two result sets."""
    lines = [f"{'metric':<14}{'parent':>12}{'change':>12}  verdict"]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        p, c = values(parent, name), values(change, name)
        if not p or not c:
            lines.append(f"{name:<14}  (no data)")
            continue
        verdict = judge(p, c, metric["better"] == "lower", metric["bound"])
        lines.append(
            f"{name:<14}{statistics.median(p):>12.4f}"
            f"{statistics.median(c):>12.4f}  {verdict}"
        )
    return "\n".join(lines)


def load_set(directory: Path) -> List[dict]:
    """The results stored in a set directory, in run order."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("run_*.json"))
    ]


def store(directory: Path, index: int, result: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"run_{index:02d}.json").write_text(
        json.dumps(result), encoding="utf-8"
    )


def write_digests() -> None:
    """Regenerate ``perfbench/digests.json`` at the default seed."""
    from perfbench.run import DIGESTS, Bench

    sys.path.insert(0, str(ROOT / "src"))
    digests: Dict[str, Dict[str, str]] = {}
    for workload in ("table51_cold", "figures_cold"):
        bench = Bench(workload, DEFAULT_SEED)
        try:
            proc = bench.child()
        finally:
            bench.close()
        if proc.returncode != 0 or proc.record is None:
            raise SystemExit(f"runs: the {workload} run failed")
        digests[bench.workload.drivers] = proc.record["digests"]
    DIGESTS.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("-n", "--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, help="set directory")
    parser.add_argument("--parent", type=Path, help="parent checkout")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="SET")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.write_digests:
        write_digests()
        return 0
    if args.compare:
        parent, change = (load_set(d) for d in args.compare)
        print(f"parent {args.compare[0]}:\n{summary(parent)}\n")
        print(f"change {args.compare[1]}:\n{summary(change)}\n")
        print(compare(parent, change))
        return 0
    if not args.workload:
        parser.error("name a workload, or use --compare / --write-digests")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.out or (
        ROOT / ".perfbench" / "sets" / f"{stamp}-{args.workload}-seed{args.seed}"
    )
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    from perfbench.run import environment

    for side, checkout in sides.items():
        target = out / side if args.parent else out
        target.mkdir(parents=True, exist_ok=True)
        (target / "environment.json").write_text(
            json.dumps(
                environment(checkout, args.seed, args.workload), indent=2
            ),
            encoding="utf-8",
        )
    results: Dict[str, List[dict]] = {side: [] for side in sides}
    for i in range(args.runs):
        # alternate which side runs first, pair by pair
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in [side for side in order if side in sides]:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            results[side].append(result)
            store(out / side if args.parent else out, i, result)
    for side, runs in results.items():
        print(f"{side} ({sides[side]}), {args.workload}, seed {args.seed}:")
        print(summary(runs) + "\n")
    if args.parent is not None:
        print(compare(results["parent"], results["change"]))
    print(f"results in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
