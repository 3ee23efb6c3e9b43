"""Fig. 6.18 -- Normalised EDP of the seven SPLASH-2 benchmarks.

For each pipe stage: EDP of SynTS (online), No-TS and Nominal,
normalised to SynTS (offline), at the equal-weight theta.  Reproduces
the figure's two observations:

1. the online overhead versus offline SynTS is modest (~10.3 % EDP on
   average across the 21 benchmark x stage points);
2. online SynTS still beats No-TS and Nominal everywhere, and beats
   per-core TS by up to ~25 % EDP.

All (benchmark, stage, scheme, interval) cells go through the
experiment engine: they run on remote workers under ``--workers``,
and the offline cells are shared with ``headline`` through the
session cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.engine import get_engine
from repro.workloads.registry import reported_benchmarks

from . import EXPERIMENTS
from .common import STAGES, ExperimentResult

if TYPE_CHECKING:
    from repro.engine.cells import CellSpec

__all__ = ["StagePanel", "run", "run_stage"]

#: The baselines shown alongside online SynTS.
_BASELINES = ("no_ts", "nominal", "per_core_ts")


def _n_samp_for(benchmark: str) -> int:
    """Paper's sampling budget: 50K instructions, 10K for short-interval
    FMM."""
    return 10_000 if benchmark == "fmm" else 50_000


@dataclass(frozen=True)
class StagePanel:
    """One sub-figure (a/b/c): normalised EDP rows for a stage."""

    stage: str
    benchmarks: Tuple[str, ...]
    synts_online: Tuple[float, ...]
    no_ts: Tuple[float, ...]
    nominal: Tuple[float, ...]
    per_core_ts: Tuple[float, ...]

    @property
    def mean_online_overhead(self) -> float:
        import numpy as np

        return float(np.mean(self.synts_online)) - 1.0

    @property
    def max_gain_vs_per_core(self) -> float:
        """Best online-SynTS EDP reduction against per-core TS."""
        import numpy as np

        return float(
            np.max(1.0 - np.asarray(self.synts_online) / np.asarray(self.per_core_ts))
        )


def _stage_specs(
    stage: str, seed: int
) -> Dict[Tuple[str, str], Tuple[CellSpec, ...]]:
    """(benchmark, scheme) -> interval cells for one panel."""
    from repro.engine.cells import benchmark_specs

    groups: Dict[Tuple[str, str], Tuple[CellSpec, ...]] = {}
    for name in reported_benchmarks():
        groups[name, "synts"] = benchmark_specs(name, stage, "synts")
        groups[name, "online"] = benchmark_specs(
            name, stage, "online", seed=seed, n_samp=_n_samp_for(name)
        )
        for scheme in _BASELINES:
            groups[name, scheme] = benchmark_specs(name, stage, scheme)
    return groups


def run_stage(stage: str, seed: int) -> StagePanel:
    from repro.engine.cells import totalize

    groups = _stage_specs(stage, seed)
    flat = [spec for specs in groups.values() for spec in specs]
    by_spec = dict(zip(flat, get_engine().run_cells(flat)))
    totals = {
        key: totalize([by_spec[s] for s in specs])
        for key, specs in groups.items()
    }

    benchmarks = reported_benchmarks()
    online, no_ts, nominal, per_core = [], [], [], []
    for name in benchmarks:
        ref = totals[name, "synts"].edp
        online.append(totals[name, "online"].edp / ref)
        no_ts.append(totals[name, "no_ts"].edp / ref)
        nominal.append(totals[name, "nominal"].edp / ref)
        per_core.append(totals[name, "per_core_ts"].edp / ref)
    return StagePanel(
        stage=stage,
        benchmarks=benchmarks,
        synts_online=tuple(online),
        no_ts=tuple(no_ts),
        nominal=tuple(nominal),
        per_core_ts=tuple(per_core),
    )


@EXPERIMENTS["fig_6_18"].define
def run(seed: int) -> ExperimentResult:
    import numpy as np

    panels = [run_stage(stage, seed) for stage in STAGES]
    rows: List[Tuple] = []
    for panel in panels:
        for i, name in enumerate(panel.benchmarks):
            rows.append(
                (
                    panel.stage,
                    name,
                    round(panel.synts_online[i], 3),
                    round(panel.no_ts[i], 3),
                    round(panel.nominal[i], 3),
                )
            )
    all_online = [v for p in panels for v in p.synts_online]
    mean_overhead = float(np.mean(all_online)) - 1.0
    max_gain = max(p.max_gain_vs_per_core for p in panels)
    return ExperimentResult(
        experiment_id="fig_6_18",
        title="EDP normalised to SynTS (offline), seven SPLASH-2 "
        "benchmarks x three pipe stages",
        headers=["stage", "benchmark", "SynTS(online)", "No TS", "Nominal"],
        rows=rows,
        notes={
            "mean online overhead": f"{mean_overhead * 100:.1f}% (paper 10.3%)",
            "max online gain vs per-core TS": f"{max_gain * 100:.1f}% (paper up to 25%)",
            "theta": "energy and execution time weighted equally",
        },
        plot=False,
    )


if __name__ == "__main__":
    print(run().render())
