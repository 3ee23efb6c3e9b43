"""Figs. 6.11-6.16 -- Offline energy-vs-execution-time Pareto curves.

For each published (benchmark, stage) pair, sweeps the weight theta
for SynTS, Per-core TS and No-TS, normalises to the Nominal baseline
and extracts the figures' callout metrics:

* *energy gap*: how much less energy SynTS needs than Per-core TS at
  matched execution time (max over the per-core front);
* *speed gap*: how much faster SynTS is than Per-core TS at matched
  energy (max over the per-core front).

The published callouts (21 % / 18 % for FMM-SimpleALU, 27.6 % / 20 %
for Cholesky-Decode, ...) are the same two quantities read off the
plots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Series
from repro.engine import get_engine

from . import PARETO_FIGURE
from .common import ExperimentResult

if TYPE_CHECKING:
    from repro.core.pareto import TradeoffPoint

__all__ = ["PARETO_FIGURES", "run", "run_figure", "callout_gaps"]

#: figure id -> (benchmark, stage, paper's callout: energy%, speed%)
PARETO_FIGURES: Dict[str, Tuple[str, str, Optional[float], Optional[float]]] = {
    "fig_6_11": ("fmm", "simple_alu", 21.0, 18.0),
    "fig_6_12": ("cholesky", "simple_alu", 6.0, 10.3),
    "fig_6_13": ("cholesky", "decode", 27.6, 20.0),
    "fig_6_14": ("raytrace", "decode", 25.1, 21.0),
    "fig_6_15": ("cholesky", "complex_alu", None, None),
    "fig_6_16": ("raytrace", "complex_alu", None, None),
}


def _interp_front(
    front: Sequence[TradeoffPoint], x: float, by: str
) -> Optional[float]:
    """Interpolate a Pareto front: energy at a given time (``by =
    'time'``) or time at a given energy (``by = 'energy'``)."""
    import numpy as np

    if by == "time":
        xs = [p.time for p in front]
        ys = [p.energy for p in front]
    else:
        xs = [p.energy for p in front]
        ys = [p.time for p in front]
        order = np.argsort(xs)
        xs = [xs[i] for i in order]
        ys = [ys[i] for i in order]
    if not xs or x < xs[0] - 1e-9 or x > xs[-1] + 1e-9:
        return None
    return float(np.interp(x, xs, ys))


def callout_gaps(
    syn_points: Sequence[TradeoffPoint],
    pc_points: Sequence[TradeoffPoint],
) -> Tuple[Optional[float], Optional[float]]:
    """(energy gap %, speed gap %) of SynTS against Per-core TS.

    Returns ``None`` for a gap when the fronts do not overlap on that
    axis (the paper's "direct comparison cannot be drawn" situation
    of Figs. 6.15-6.16).
    """
    from repro.core.pareto import pareto_front

    syn = pareto_front(syn_points)
    pc = pareto_front(pc_points)
    energy_gaps = []
    speed_gaps = []
    for q in pc:
        e_syn = _interp_front(syn, q.time, by="time")
        if e_syn is not None and q.energy > 0:
            energy_gaps.append(1.0 - e_syn / q.energy)
        t_syn = _interp_front(syn, q.energy, by="energy")
        if t_syn is not None and q.time > 0:
            speed_gaps.append(1.0 - t_syn / q.time)
    energy = max(energy_gaps) * 100 if energy_gaps else None
    speed = max(speed_gaps) * 100 if speed_gaps else None
    return energy, speed


def _sweep_cells(
    benchmark: str,
    stage: str,
    thetas: Sequence[float],
) -> Dict[str, List[TradeoffPoint]]:
    """Theta sweeps for the three schemes, as one engine fan-out.

    Each point is a scheme's totals at one theta, normalised to the
    Nominal totals.  Every (scheme, theta, interval) cell is submitted
    at once, so a parallel engine sweeps whole figures concurrently
    and repeated cells (across figures, sessions) come from the cache.
    """
    from repro.core.pareto import TradeoffPoint
    from repro.engine.cells import benchmark_specs, totalize

    schemes = {
        "SynTS": "synts",
        "Per-core TS": "per_core_ts",
        "No TS": "no_ts",
    }
    groups: Dict[Tuple[str, float], Tuple] = {}
    for scheme in schemes.values():
        for theta in thetas:
            groups[scheme, float(theta)] = benchmark_specs(
                benchmark, stage, scheme, theta=float(theta)
            )
    # theta=None (equal-weight), not an explicit theta: the nominal
    # solver ignores theta, and this keying makes the cells identical
    # to the ones fig_6_18 submits, so they are shared via the cache
    nominal_specs = benchmark_specs(benchmark, stage, "nominal")
    flat = [s for specs in groups.values() for s in specs] + list(nominal_specs)
    by_spec = dict(zip(flat, get_engine().run_cells(flat)))

    nominal = totalize([by_spec[s] for s in nominal_specs])
    sweeps: Dict[str, List[TradeoffPoint]] = {}
    for label, scheme in schemes.items():
        points = []
        for theta in thetas:
            totals = totalize([by_spec[s] for s in groups[scheme, float(theta)]])
            points.append(
                TradeoffPoint(
                    theta=float(theta),
                    time=totals.total_time / nominal.total_time,
                    energy=totals.total_energy / nominal.total_energy,
                )
            )
        sweeps[label] = points
    return sweeps


@PARETO_FIGURE.define
def run_figure(figure_id: str, n_thetas: int, decades: float) -> ExperimentResult:
    """Regenerate one of Figs. 6.11-6.16."""
    from repro.core.pareto import pareto_front, theta_grid
    from repro.engine.cells import cached_interval_problems

    if figure_id not in PARETO_FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; have {sorted(PARETO_FIGURES)}"
        )
    benchmark, stage, paper_energy, paper_speed = PARETO_FIGURES[figure_id]
    # same per-process memo the cells use: the grid derivation shares
    # problem construction with the cells instead of rebuilding
    thetas = theta_grid(
        cached_interval_problems(benchmark, stage), n_thetas, decades
    )
    sweeps = _sweep_cells(benchmark, stage, thetas)
    series = [
        Series(name, tuple(p.time for p in pts), tuple(p.energy for p in pts))
        for name, pts in sweeps.items()
    ]
    energy_gap, speed_gap = callout_gaps(sweeps["SynTS"], sweeps["Per-core TS"])

    front = pareto_front(sweeps["SynTS"])
    rows = [
        (round(p.time, 3), round(p.energy, 3), f"{p.theta:.3g}") for p in front
    ]
    notes: Dict[str, object] = {
        "benchmark / stage": f"{benchmark} / {stage}",
        "energy gap vs Per-core TS": (
            f"{energy_gap:.1f}%" if energy_gap is not None else "fronts do not overlap"
        ),
        "speed gap vs Per-core TS": (
            f"{speed_gap:.1f}%" if speed_gap is not None else "fronts do not overlap"
        ),
    }
    if paper_energy is not None:
        notes["paper energy callout"] = f"{paper_energy}%"
        notes["paper speed callout"] = f"{paper_speed}%"
    else:
        notes["paper"] = (
            "no callout: Per-core TS / No TS do not converge close to SynTS"
        )
    return ExperimentResult(
        experiment_id=figure_id,
        title=f"Energy vs. execution time, {benchmark} ({stage}), "
        "normalised to Nominal",
        headers=["time (norm.)", "energy (norm.)", "theta"],
        rows=rows,
        series=series,
        notes=notes,
    )


def run(**params: object) -> Dict[str, ExperimentResult]:
    """Regenerate all six Pareto figures; ``params`` override
    :func:`run_figure`'s defaults (``n_thetas``, ``decades``) and may
    pass ``engine=``."""
    return {fig: run_figure(fig, **params) for fig in PARETO_FIGURES}


if __name__ == "__main__":
    for result in run().values():
        print(result.render())
        print()
