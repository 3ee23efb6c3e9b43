#!/usr/bin/env python3
"""Fail a change whose benchmark runs regress against its parent.

From the repository root, with the parent commit checked out in
``../parent``::

    python3 tools/perf_gate.py figures_cold -n 5 --seconds 5 \\
        --parent ../parent --out perf-gate/figures_cold

Every argument goes to ``perfbench/runs.py``, whose own ``main`` runs
the alternating parent/change pairs, prints both summaries and the
comparison table, and stores the two sets under ``--out``.  The gate
then judges the stored sets with ``runs.judge`` and exits 1 when any
end-to-end metric of ``BENCHMARK.json`` is a "regression", or when
the change has a larger share of failed output checks than the
parent.  "gain", "no regression" and "unresolved" pass.

Before any run it exits 2 when only one of the two checkouts has
bytecode caches (``src/**/__pycache__/*.pyc``): a run there skips
compiling its modules, so the comparison would time the caches, not
the change.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import runs  # noqa: E402


def failed_share(results: Sequence[dict]) -> float:
    """Failed output checks over attempted ones across a set."""
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(attempted, 1)


def failures(parent: Sequence[dict], change: Sequence[dict]) -> List[str]:
    """Why the change fails the gate; empty when it passes."""
    reasons = []
    for metric in runs.SPEC["end_to_end"]:
        name = metric["name"]
        p, c = runs.values(parent, name), runs.values(change, name)
        if p and c and runs.judge(
            p, c, metric["better"] == "lower", metric["bound"]
        ) == "regression":
            reasons.append(f"{name}: regression beyond its bound {metric['bound']}")
    if failed_share(change) > failed_share(parent):
        reasons.append(
            f"failed output checks: change {failed_share(change):.4f} > "
            f"parent {failed_share(parent):.4f}"
        )
    return reasons


def has_bytecode(checkout: Path) -> bool:
    """Whether ``checkout`` holds compiled modules under ``src/``."""
    return next((checkout / "src").glob("**/__pycache__/*.pyc"), None) is not None


def lopsided(parent: Path, change: Path) -> Optional[str]:
    """Why the two checkouts cannot be compared fairly, if they cannot."""
    cached = [c for c in (parent, change) if has_bytecode(c)]
    if len(cached) != 1:
        return None
    return (
        f"only {cached[0]} has bytecode caches under src/, so its runs skip "
        "compiling modules; delete them (find src -name __pycache__ -exec "
        "rm -r {} +) or run both checkouts under PYTHONDONTWRITEBYTECODE=1 "
        "from trees without caches"
    )


def gate(out: Path) -> int:
    """Judge the sets ``runs.py --parent`` stored under ``out``."""
    reasons = failures(runs.load_set(out / "parent"), runs.load_set(out / "change"))
    for reason in reasons:
        print(f"perf gate: FAIL: {reason}")
    if not reasons:
        print("perf gate: pass")
    return 1 if reasons else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    known, _ = parser.parse_known_args(argv)
    reason = lopsided(known.parent, ROOT)
    if reason:
        print(f"perf gate: {reason}", file=sys.stderr)
        return 2
    runs.main(argv)
    return gate(known.out)


if __name__ == "__main__":
    raise SystemExit(main())
