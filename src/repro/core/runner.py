"""Problem construction for a benchmark's barrier intervals.

The paper evaluates each scheme over (up to) three barrier intervals
per benchmark.  :func:`interval_problems` turns a materialised
benchmark into one optimisation instance per interval; the engine's
cells (:mod:`repro.engine.cells`) memoise it per (benchmark, stage,
platform overrides), and :func:`repro.engine.cells.totalize` holds the
accounting over the intervals (per-interval sums, EDP on the totals).
"""

from __future__ import annotations

from typing import List, Optional

from repro.workloads.model import Benchmark

from .model import PlatformConfig
from .problem import SynTSProblem, problem_from_interval

__all__ = ["interval_problems"]


def interval_problems(
    benchmark: Benchmark,
    stage: str,
    config: Optional[PlatformConfig] = None,
) -> List[SynTSProblem]:
    """One optimisation instance per barrier interval."""
    cfg = config or PlatformConfig()
    return [
        problem_from_interval(iv, stage, cfg) for iv in benchmark.intervals
    ]
