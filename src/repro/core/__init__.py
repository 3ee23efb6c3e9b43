"""SynTS core: the paper's contribution.

System model (Eqs. 4.1-4.3), the SynTS-OPT objective (Eq. 4.4), the
exact polynomial-time solver SynTS-Poly (Algorithm 1), the SynTS-MILP
formulation (Eqs. 4.5-4.10), the comparison baselines, the online
sampling controller (Section 4.3) and Pareto-front tooling.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".baselines": (
            "solve_no_ts", "solve_nominal", "solve_per_core_ts",
        ),
        ".brute": ("solve_synts_brute",),
        ".milp_formulation": ("build_synts_milp", "solve_synts_milp"),
        ".model": (
            "DEFAULT_TSR_LEVELS", "Assignment", "Evaluation", "OperatingPoint",
            "PlatformConfig", "ThreadParams", "effective_cpi",
            "evaluate_assignment", "thread_energy", "thread_time",
        ),
        ".online": (
            "IntervalOutcome", "OnlineKnobs", "run_online_batch",
            "run_online_interval",
        ),
        ".pareto": (
            "TradeoffPoint", "pareto_front", "theta_grid",
        ),
        ".poly": (
            "SynTSSolution", "solve_synts_poly", "solve_synts_poly_batch",
        ),
        ".problem": ("SynTSProblem", "problem_from_interval"),
        ".runner": ("interval_problems",),
        ".schemes": (
            "SCHEME_REGISTRY", "Scheme", "register_scheme",
        ),
        ".sync_extensions": (
            "SyncSolution", "SyncTopology", "barrier_topology",
            "phased_topology", "serial_topology", "solve_synts_sync",
        ),
    },
)
