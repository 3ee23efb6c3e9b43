"""Scenario growth without code forks: registries + the engine + events.

Registers a deterministic synthetic workload (8 threads, 3x
heterogeneity spread, a hotter decode stage) and a custom comparison
scheme (a "greedy uniform" solver that picks one shared operating
point), then sweeps both through the engine on the serial backend
while watching the progress event stream -- no experiment-driver or
engine changes anywhere.

Run with::

    PYTHONPATH=src python examples/custom_scenario.py
"""

from repro.core.schemes import Scheme, register_scheme
from repro.engine import (
    EventLog,
    ExperimentEngine,
    benchmark_specs,
    totalize,
)
from repro.workloads import register_synthetic


def solve_uniform(problem, theta):
    """Toy scheme: every core at the single best *shared* (V, r)."""
    best = None
    for j in range(len(problem.config.voltages)):
        for k in range(problem.config.n_tsr):
            indices = tuple((j, k) for _ in range(problem.n_threads))
            evaluation = problem.evaluate_indices(indices)
            cost = float(evaluation.cost(theta))
            if best is None or cost < best[0]:
                best = (cost, indices, evaluation)
    cost, indices, evaluation = best
    from repro.core.poly import SynTSSolution
    import numpy as np

    return SynTSSolution(
        indices=indices,
        assignment=problem.assignment_from_indices(indices),
        evaluation=evaluation,
        cost=cost,
        theta=theta,
        critical_thread=int(np.argmax(np.array(evaluation.times))),
    )


def main():
    register_synthetic(
        "synth_hot8",
        n_threads=8,
        heterogeneity=3.0,
        stage_scale={"decode": 1.5},
        description="8-thread synthetic scenario with a hot decode stage",
    )
    register_scheme(
        Scheme(
            name="uniform",
            solver=solve_uniform,
            description="single shared (V, r) for all cores",
        )
    )

    # no worker addresses: cells run serially in this process, so the
    # runtime registrations above are visible
    engine = ExperimentEngine()
    log = engine.subscribe(EventLog())

    print(f"{'scheme':<14}{'energy':>14}{'time':>12}{'EDP':>16}")
    for scheme in ("synts", "per_core_ts", "uniform", "no_ts"):
        specs = list(benchmark_specs("synth_hot8", "decode", scheme))
        totals = totalize(engine.run_cells(specs))
        print(
            f"{scheme:<14}{totals.total_energy:>14.3e}"
            f"{totals.total_time:>12.3e}{totals.edp:>16.3e}"
        )
    engine.close()

    batches = len(log.of_kind("batch_started"))
    cells = len(log.of_kind("cell_computed"))
    print(f"\nevents: {cells} cells computed across {batches} engine batches")


if __name__ == "__main__":
    main()
