"""Ablation studies for the model's design choices.

Not published artifacts -- these probe *why* SynTS wins and where the
knobs sit:

* ``sampling_budget``  -- the Section 4.3 trade-off: estimate fidelity
  and EDP overhead versus ``N_samp``;
* ``heterogeneity``    -- SynTS's gain over per-core TS as a function
  of the thread-multiplier spread (the core thesis: no heterogeneity,
  no synergy);
* ``replay_penalty``   -- sensitivity to the Razor ``C_penalty``;
* ``voltage_levels``   -- how many DVFS levels the gains need;
* ``leakage``          -- the paper's leakage extension: gains as
  static power grows from 0 to 40 % of switching power;
* ``sync_topology``    -- the future-work extension: barrier vs phased
  vs serial synchronisation (synergy vanishes as sync serialises).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import get_engine

from .common import ExperimentResult, cached_experiment

if TYPE_CHECKING:
    from repro.core.model import PlatformConfig
    from repro.core.problem import SynTSProblem

# numpy, repro.core and the engine's cells load inside the studies, so
# a warm rerun served from the result store imports none of them

__all__ = [
    "sampling_budget",
    "heterogeneity",
    "replay_penalty",
    "voltage_levels",
    "leakage",
    "sync_topology",
    "ABLATIONS",
]


@cached_experiment("ablation_sampling_budget")
def sampling_budget(
    benchmark: str = "radix", stage: str = "decode", seed: int = 3
) -> ExperimentResult:
    """Online EDP overhead and estimate error vs N_samp."""
    import numpy as np

    from repro.core.online import OnlineKnobs
    from repro.core.poly import solve_synts_poly
    from repro.core.runner import (
        interval_problems,
        run_offline_benchmark,
        run_online_benchmark,
    )
    from repro.workloads import build_benchmark

    bm = build_benchmark(benchmark)
    theta = interval_problems(bm, stage)[0].equal_weight_theta()
    offline = run_offline_benchmark(bm, stage, theta, solve_synts_poly)
    rows = []
    for n_samp in (2_000, 10_000, 50_000, 150_000):
        rng = np.random.default_rng(seed)
        online = run_online_benchmark(
            bm, stage, theta, rng, OnlineKnobs(n_samp=n_samp)
        )
        # estimate error measured on the first interval's thread 0
        outcome = online.outcomes[0]
        problem = interval_problems(bm, stage)[0]
        grid = np.asarray(problem.config.tsr_levels)
        dev = float(
            np.max(
                np.abs(
                    outcome.estimates[0].curve(grid)
                    - np.clip(problem.threads[0].err.curve(grid), 0, 1)
                )
            )
        )
        rows.append(
            (
                n_samp,
                round(online.edp / offline.edp, 4),
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


@cached_experiment("ablation_heterogeneity")
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


@cached_experiment("ablation_replay_penalty")
def replay_penalty(
    benchmark: str = "radix", stage: str = "decode", engine=None
) -> ExperimentResult:
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


@cached_experiment("ablation_voltage_levels")
def voltage_levels(
    benchmark: str = "cholesky", stage: str = "decode", engine=None
) -> ExperimentResult:
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


@cached_experiment("ablation_leakage")
def leakage(
    benchmark: str = "cholesky", stage: str = "decode", engine=None
) -> ExperimentResult:
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


@cached_experiment("ablation_sync_topology")
def sync_topology(benchmark: str = "cholesky", stage: str = "decode") -> ExperimentResult:
    """Future-work extension: barrier vs phased vs serial sync."""
    from repro.core.baselines import solve_per_core_ts
    from repro.core.runner import interval_problems
    from repro.core.sync_extensions import (
        barrier_topology,
        phased_topology,
        serial_topology,
        solve_synts_sync,
    )
    from repro.workloads import build_benchmark

    bm = build_benchmark(benchmark)
    problem = interval_problems(bm, stage)[0]
    theta = problem.equal_weight_theta()
    m = problem.n_threads
    topologies = [
        ("barrier (paper)", barrier_topology(m)),
        ("2 phases of 2", phased_topology([2, 2])),
        ("serial chain", serial_topology(m)),
    ]
    rows = []
    for name, topo in topologies:
        syn = solve_synts_sync(problem, theta, topo)
        # per-core TS under the same topology
        pc_sol = solve_per_core_ts(problem, theta)
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


@cached_experiment("ablation_process_variation")
def process_variation(
    benchmark: str = "ocean", stage: str = "complex_alu", seed: int = 4
) -> ExperimentResult:
    """SynTS under inter-core process variation.

    Ocean is *workload*-homogeneous (the paper excludes it for that
    reason); core-speed variation re-introduces heterogeneity at the
    die level, and SynTS harvests it just like thread heterogeneity.
    """
    import numpy as np

    from repro.core.baselines import solve_per_core_ts
    from repro.core.poly import solve_synts_poly
    from repro.core.runner import interval_problems
    from repro.errors import VariationModel, apply_variation
    from repro.workloads import build_benchmark

    problem = interval_problems(build_benchmark(benchmark), stage)[0]
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


#: name -> zero-argument ablation callable
ABLATIONS = {
    "sampling_budget": sampling_budget,
    "heterogeneity": heterogeneity,
    "replay_penalty": replay_penalty,
    "voltage_levels": voltage_levels,
    "leakage": leakage,
    "sync_topology": sync_topology,
    "process_variation": process_variation,
}


if __name__ == "__main__":
    for fn in ABLATIONS.values():
        print(fn().render())
        print()
