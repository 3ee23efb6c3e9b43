"""Bodies of the ablation studies declared in :mod:`.ablations`.

Only a result-store miss imports this module: a warm hit is served
from the declaration's key alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import get_engine

from . import ablations
from .common import ExperimentResult

if TYPE_CHECKING:
    from repro.core.model import PlatformConfig
    from repro.core.problem import SynTSProblem

# numpy, repro.core and the engine's cells load inside the studies, so
# importing this module stays cheap


@ablations.sampling_budget.define
def sampling_budget(
    benchmark: str, stage: str, seed: int, engine
) -> ExperimentResult:
    """Online EDP overhead and estimate error vs N_samp."""
    import numpy as np

    from repro.core.online import OnlineKnobs, run_online_batch
    from repro.engine.cells import (
        benchmark_specs,
        cached_interval_problems,
        totalize,
    )

    offline = totalize(
        engine.run_cells(list(benchmark_specs(benchmark, stage, "synts")))
    )
    problems = cached_interval_problems(benchmark, stage)
    theta = problems[0].equal_weight_theta()
    # estimate error measured on the first interval's thread 0
    problem = problems[0]
    grid = np.asarray(problem.config.tsr_levels)
    actual = np.clip(problem.threads[0].err.curve(grid), 0, 1)
    rows = []
    n = len(problems)
    for n_samp in (2_000, 10_000, 50_000, 150_000):
        # one stream across the intervals, drawn in interval order
        rng = np.random.default_rng(seed)
        outcomes = run_online_batch(
            problems, [theta] * n, [rng] * n, [OnlineKnobs(n_samp=n_samp)] * n
        )
        # totalize's accounting: per-interval sums, EDP on the totals
        energy = time = 0.0
        for outcome in outcomes:
            energy += outcome.total_energy
            time += outcome.texec
        dev = float(
            np.max(np.abs(outcomes[0].estimates[0].curve(grid) - actual))
        )
        rows.append(
            (
                n_samp,
                round(energy * time / offline.edp, 4),
                round(dev, 4),
            )
        )
    return ExperimentResult(
        experiment_id="ablation_sampling_budget",
        title=f"Sampling-budget trade-off ({benchmark}/{stage})",
        headers=["N_samp", "online/offline EDP", "max estimate error (T0)"],
        rows=rows,
        notes={
            "expectation": "estimate error falls with N_samp; EDP overhead "
            "is lowest at an interior budget (tiny budgets mis-decide, "
            "huge budgets over-sample)",
        },
        plot=False,
    )


def _spread_problem(spread: float, cfg: PlatformConfig) -> SynTSProblem:
    """Four balanced threads whose error scale spans ``spread``x."""
    import numpy as np

    from repro.core.model import ThreadParams
    from repro.core.problem import SynTSProblem
    from repro.errors.probability import BetaTailErrorFunction

    scales = np.geomspace(spread, 1.0, 4) * 0.03
    threads = tuple(
        ThreadParams(
            n_instructions=500_000,
            cpi_base=1.25,
            err=BetaTailErrorFunction(
                a=5.5, b=4.0, lo=0.40, hi=0.99, scale_p=float(s)
            ),
        )
        for s in scales
    )
    return SynTSProblem(config=cfg, threads=threads)


@ablations.heterogeneity.define
def heterogeneity() -> ExperimentResult:
    """SynTS gain over per-core TS vs the thread error spread."""
    from repro.core.baselines import solve_per_core_ts
    from repro.core.model import PlatformConfig
    from repro.core.poly import solve_synts_poly

    cfg = PlatformConfig()
    rows = []
    for spread in (1.0, 2.0, 4.0, 8.0):
        problem = _spread_problem(spread, cfg)
        theta = problem.equal_weight_theta()
        syn = solve_synts_poly(problem, theta)
        pc = solve_per_core_ts(problem, theta)
        rows.append(
            (
                f"{spread:.0f}x",
                round(1 - syn.evaluation.edp / pc.evaluation.edp, 4),
                round(1 - syn.cost / pc.cost, 4),
            )
        )
    return ExperimentResult(
        experiment_id="ablation_heterogeneity",
        title="SynTS gain vs thread-heterogeneity spread "
        "(balanced N, error scale only)",
        headers=["spread", "EDP gain vs per-core", "cost gain vs per-core"],
        rows=rows,
        notes={
            "observation": "even a homogeneous barrier benefits (SynTS "
            "trades slack no matter who is critical), but heterogeneity "
            "roughly doubles the gain before saturating once the critical "
            "thread fully dominates",
        },
        plot=False,
    )


def _first_interval_cells(benchmark, stage, schemes, engine=None, **overrides):
    """One engine fan-out over schemes x override values.

    Returns ``{(scheme, value): CellResult}`` for the benchmark's
    first barrier interval; ``overrides`` maps one CellSpec platform
    field to the swept values.
    """
    from repro.engine.cells import CellSpec

    (field, values), = overrides.items()
    specs = {
        (scheme, value): CellSpec(
            benchmark=benchmark,
            stage=stage,
            scheme=scheme,
            interval=0,
            **{field: value},
        )
        for value in values
        for scheme in schemes
    }
    flat = list(specs.values())
    results = (engine or get_engine()).run_cells(flat)
    return dict(zip(specs.keys(), results))


@ablations.replay_penalty.define
def replay_penalty(benchmark: str, stage: str, engine) -> ExperimentResult:
    """Sensitivity of the SynTS gain to the Razor replay penalty."""
    penalties = (2.0, 5.0, 10.0, 20.0)
    cells = _first_interval_cells(
        benchmark,
        stage,
        ("synts", "per_core_ts", "nominal"),
        engine,
        c_penalty=penalties,
    )
    rows = []
    for c_penalty in penalties:
        syn = cells["synts", c_penalty]
        pc = cells["per_core_ts", c_penalty]
        nom = cells["nominal", c_penalty]
        rows.append(
            (
                c_penalty,
                round(1 - syn.edp / pc.edp, 4),
                round(syn.time / nom.time, 4),
            )
        )
    return ExperimentResult(
        experiment_id="ablation_replay_penalty",
        title=f"Razor replay-penalty sensitivity ({benchmark}/{stage})",
        headers=["C_penalty", "EDP gain vs per-core", "SynTS time (norm.)"],
        rows=rows,
        notes={"paper value": "5 cycles (Razor)"},
        plot=False,
    )


@ablations.voltage_levels.define
def voltage_levels(benchmark: str, stage: str, engine) -> ExperimentResult:
    """How many DVFS levels the synergy needs."""
    qs = (1, 2, 4, 7)
    cells = _first_interval_cells(
        benchmark, stage, ("synts", "per_core_ts"), engine, n_voltages=qs
    )
    rows = [
        (
            q,
            round(
                1 - cells["synts", q].edp / cells["per_core_ts", q].edp, 4
            ),
        )
        for q in qs
    ]
    return ExperimentResult(
        experiment_id="ablation_voltage_levels",
        title=f"Gain vs number of voltage levels Q ({benchmark}/{stage})",
        headers=["Q (levels)", "EDP gain vs per-core"],
        rows=rows,
        notes={
            "expectation": "with Q = 1 the only lever is frequency; gains "
            "grow as voltage levels open the energy dimension",
        },
        plot=False,
    )


@ablations.leakage.define
def leakage(benchmark: str, stage: str, engine) -> ExperimentResult:
    """The paper's leakage extension: gains as static power grows."""
    leaks = (0.0, 0.1, 0.2, 0.4)
    cells = _first_interval_cells(
        benchmark,
        stage,
        ("synts", "per_core_ts", "nominal"),
        engine,
        leakage=leaks,
    )
    rows = []
    for leak in leaks:
        syn = cells["synts", leak]
        pc = cells["per_core_ts", leak]
        nom = cells["nominal", leak]
        rows.append(
            (
                leak,
                round(1 - syn.edp / pc.edp, 4),
                round(syn.energy / nom.energy, 4),
            )
        )
    return ExperimentResult(
        experiment_id="ablation_leakage",
        title=f"Leakage-power extension ({benchmark}/{stage})",
        headers=["leakage coeff", "EDP gain vs per-core", "SynTS energy (norm.)"],
        rows=rows,
        notes={
            "paper": "Sec. 4.1: 'does not account for leakage ... can be "
            "easily extended'; leakage rewards finishing early, shifting "
            "optima toward faster, higher-V points",
        },
        plot=False,
    )


@ablations.sync_topology.define
def sync_topology(benchmark: str, stage: str) -> ExperimentResult:
    """Future-work extension: barrier vs phased vs serial sync."""
    from repro.core.baselines import solve_per_core_ts
    from repro.core.sync_extensions import (
        barrier_topology,
        phased_topology,
        serial_topology,
        solve_synts_sync,
    )
    from repro.engine.cells import cached_interval_problems

    problem = cached_interval_problems(benchmark, stage)[0]
    theta = problem.equal_weight_theta()
    m = problem.n_threads
    topologies = [
        ("barrier (paper)", barrier_topology(m)),
        ("2 phases of 2", phased_topology([2, 2])),
        ("serial chain", serial_topology(m)),
    ]
    # per-core TS ignores the topology: one solve, timed under each
    pc_sol = solve_per_core_ts(problem, theta)
    rows = []
    for name, topo in topologies:
        syn = solve_synts_sync(problem, theta, topo)
        pc_time = topo.interval_time(pc_sol.evaluation.times)
        pc_edp = pc_sol.evaluation.total_energy * pc_time
        rows.append(
            (
                name,
                round(1 - syn.edp / pc_edp, 4),
                round(syn.total_time / problem.nominal_evaluation().texec, 3),
            )
        )
    return ExperimentResult(
        experiment_id="ablation_sync_topology",
        title=f"Synchronisation-topology extension ({benchmark}/{stage})",
        headers=["topology", "EDP gain vs per-core", "time (norm. to nominal barrier)"],
        rows=rows,
        notes={
            "expectation": "synergy is a property of the barrier's max "
            "semantics: under a serial chain the cost separates and "
            "per-core TS is already optimal (gain ~ 0)",
        },
        plot=False,
    )


@ablations.process_variation.define
def process_variation(benchmark: str, stage: str, seed: int) -> ExperimentResult:
    """SynTS under inter-core process variation.

    Ocean is *workload*-homogeneous (the paper excludes it for that
    reason); core-speed variation re-introduces heterogeneity at the
    die level, and SynTS harvests it just like thread heterogeneity.
    """
    import numpy as np

    from repro.core.baselines import solve_per_core_ts
    from repro.core.poly import solve_synts_poly
    from repro.engine.cells import cached_interval_problems
    from repro.errors import VariationModel, apply_variation

    problem = cached_interval_problems(benchmark, stage)[0]
    rng = np.random.default_rng(seed)
    rows = []
    for sigma in (0.0, 0.03, 0.06):
        gains = []
        for _rep in range(5):
            factors = VariationModel(sigma).core_factors(
                problem.n_threads, rng
            )
            varied = apply_variation(problem, factors)
            theta = varied.equal_weight_theta()
            syn = solve_synts_poly(varied, theta)
            pc = solve_per_core_ts(varied, theta)
            gains.append(1 - syn.evaluation.edp / pc.evaluation.edp)
        rows.append((sigma, round(float(np.mean(gains)), 4)))
    return ExperimentResult(
        experiment_id="ablation_process_variation",
        title=f"Process-variation heterogeneity ({benchmark}/{stage})",
        headers=["sigma(ln speed)", "mean EDP gain vs per-core"],
        rows=rows,
        notes={
            "observation": "even a workload-homogeneous benchmark gains "
            "from SynTS once inter-core speed variation shifts the "
            "per-core error walls apart",
        },
        plot=False,
    )
