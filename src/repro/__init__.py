"""repro: a full reproduction of "Synergistic Timing Speculation for
Multi-Threaded Programs" (SynTS, DAC 2016 / Yasin 2016).

Public API highlights
---------------------
* :mod:`repro.core` -- the SynTS optimiser (SynTS-Poly, SynTS-MILP),
  baselines, online controller, system model.
* :mod:`repro.circuit` -- gate-level substrate: netlists, STA, logic
  simulation, voltage physics, pipe-stage synthesis.
* :mod:`repro.errors` -- error-probability functions and the online
  sampling estimator.
* :mod:`repro.workloads` -- SPLASH-2 benchmark profiles and the
  cross-layer characterisation path.
* :mod:`repro.arch` -- discrete-event multi-core simulator with Razor
  recovery and barrier synchronisation.
* :mod:`repro.gpgpu` -- Radeon HD 7970 SIMD case study.
* :mod:`repro.experiments` -- one driver per published table/figure.
"""

#: Package version (kept in sync with pyproject.toml); participates in
#: every engine cache key so persistent --cache-dir entries from older
#: code versions are never served.  It also salts the online cells' RNG
#: seeds (``repro.engine.cells.cell_seed``), so changing it changes the
#: values of every figure with online cells.
__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "OnlineKnobs", "PlatformConfig", "SCHEME_REGISTRY", "Scheme",
            "SynTSProblem", "SynTSSolution", "ThreadParams",
            "register_scheme", "run_online_interval", "solve_no_ts",
            "solve_nominal", "solve_per_core_ts", "solve_synts_milp",
            "solve_synts_poly",
        ),
        ".workloads": (
            "HETEROGENEOUS_BENCHMARKS", "SPLASH2_PROFILES", "WORKLOAD_REGISTRY",
            "build_benchmark", "register_synthetic", "register_workload",
            "reported_benchmarks",
        ),
    },
)

__all__ = [
    "Scheme",
    "SCHEME_REGISTRY",
    "register_scheme",
    "WORKLOAD_REGISTRY",
    "register_workload",
    "register_synthetic",
    "reported_benchmarks",
    "PlatformConfig",
    "ThreadParams",
    "SynTSProblem",
    "SynTSSolution",
    "solve_synts_poly",
    "solve_synts_milp",
    "solve_nominal",
    "solve_no_ts",
    "solve_per_core_ts",
    "OnlineKnobs",
    "run_online_interval",
    "build_benchmark",
    "SPLASH2_PROFILES",
    "HETEROGENEOUS_BENCHMARKS",
    "__version__",
]
