"""Experiment drivers: one module per published table/figure.

Registry mapping experiment ids to their ``run`` callables (``python
-m repro list`` prints it).  Each module is also runnable as
``python -m repro.experiments.<module>``.
"""

from importlib import import_module

from .common import REPORTED_BENCHMARKS, STAGES, ExperimentResult


def _driver(module: str):
    """``<module>.run``, with the driver module imported on first call."""

    def run(*args, **kwargs):
        return import_module(f"{__name__}.{module}").run(*args, **kwargs)

    return run


def _pareto(fig_id: str):
    """``pareto_figs.run_figure(fig_id)``, imported on first call."""

    def run():
        from . import pareto_figs

        return pareto_figs.run_figure(fig_id)

    return run


#: experiment id -> zero-argument callable regenerating it.  Driver
#: modules load on first call, so a run imports only the drivers (and
#: their dependencies) it executes.
EXPERIMENTS = {
    "table_5_1": _driver("table_5_1"),
    "fig_1_2": _driver("fig_1_2"),
    "fig_3_5": _driver("fig_3_5"),
    "fig_3_6": _driver("fig_3_6"),
    "fig_4_7": _driver("fig_4_7"),
    "fig_5_10": _driver("fig_5_10"),
    "fig_6_11": _pareto("fig_6_11"),
    "fig_6_12": _pareto("fig_6_12"),
    "fig_6_13": _pareto("fig_6_13"),
    "fig_6_14": _pareto("fig_6_14"),
    "fig_6_15": _pareto("fig_6_15"),
    "fig_6_16": _pareto("fig_6_16"),
    "fig_6_17": _driver("fig_6_17"),
    "fig_6_18": _driver("fig_6_18"),
    "sec_6_3": _driver("overhead_study"),
    "headline": _driver("headline"),
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "REPORTED_BENCHMARKS",
    "STAGES",
]
