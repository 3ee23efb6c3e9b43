"""Experiment drivers: one module per published table/figure.

:data:`EXPERIMENTS` maps each experiment id to its
:class:`~repro.experiments.common.Experiment` declaration (``python -m
repro list`` prints it).  A declaration holds the key's parameters and
their defaults; its body lives in a driver module that only a store
miss imports.  Each driver module is also runnable as ``python -m
repro.experiments.<module>``.
"""

from .common import REQUIRED, STAGES, Experiment, ExperimentResult

#: ``pareto_figs.run_figure``: one of Figs. 6.11-6.16, by figure id.
PARETO_FIGURE = Experiment(
    "pareto_figure",
    "pareto_figs",
    "run_figure",
    takes_engine=True,
    figure_id=REQUIRED,
    n_thetas=21,
    decades=2.0,
)

#: experiment id -> its declaration; calling one with no arguments
#: regenerates the published artifact.  Driver modules load on a store
#: miss only, so a run imports just the drivers it computes.
EXPERIMENTS = {
    "table_5_1": Experiment("table_5_1", "table_5_1", "run", n_stages=5),
    "fig_1_2": Experiment("fig_1_2", "fig_1_2", "run", n_points=61),
    "fig_3_5": Experiment(
        "fig_3_5",
        "fig_3_5",
        "run",
        benchmark="radix",
        stage="simple_alu",
        n_points=25,
    ),
    "fig_3_6": Experiment("fig_3_6", "fig_3_6", "run"),
    "fig_4_7": Experiment(
        "fig_4_7", "fig_4_7", "run", n_instructions=500_000, n_samp=50_000
    ),
    "fig_5_10": Experiment(
        "fig_5_10",
        "fig_5_10",
        "run",
        kernel="black_scholes",
        n_work_items=4096,
        instructions_per_item=128,
        n_shown=6,
    ),
    **{
        figure_id: PARETO_FIGURE.with_defaults(figure_id=figure_id)
        for figure_id in (
            "fig_6_11",
            "fig_6_12",
            "fig_6_13",
            "fig_6_14",
            "fig_6_15",
            "fig_6_16",
        )
    },
    "fig_6_17": Experiment("fig_6_17", "fig_6_17", "run", seed=2016),
    "fig_6_18": Experiment(
        "fig_6_18", "fig_6_18", "run", takes_engine=True, seed=7
    ),
    "sec_6_3": Experiment("sec_6_3", "overhead_study", "run"),
    "headline": Experiment("headline", "headline", "run", takes_engine=True),
}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "PARETO_FIGURE",
    "STAGES",
]
