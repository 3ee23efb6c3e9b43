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
  vs serial synchronisation (synergy vanishes as sync serialises);
* ``process_variation`` -- inter-core speed variation as a source of
  heterogeneity in a workload-homogeneous benchmark.

Each name here is an :class:`~repro.experiments.common.Experiment`
declaration; the study bodies live in :mod:`.ablation_studies`, which
only a result-store miss imports.
"""

from __future__ import annotations

from .common import Experiment

__all__ = [
    "sampling_budget",
    "heterogeneity",
    "replay_penalty",
    "voltage_levels",
    "leakage",
    "sync_topology",
    "process_variation",
    "ABLATIONS",
]


def _study(name: str, **defaults) -> Experiment:
    """Ablation ``name``, its body in :mod:`.ablation_studies`."""
    return Experiment(f"ablation_{name}", "ablation_studies", name, **defaults)


sampling_budget = _study(
    "sampling_budget", takes_engine=True, benchmark="radix", stage="decode", seed=3
)
heterogeneity = _study("heterogeneity")
replay_penalty = _study(
    "replay_penalty", takes_engine=True, benchmark="radix", stage="decode"
)
voltage_levels = _study(
    "voltage_levels", takes_engine=True, benchmark="cholesky", stage="decode"
)
leakage = _study("leakage", takes_engine=True, benchmark="cholesky", stage="decode")
sync_topology = _study("sync_topology", benchmark="cholesky", stage="decode")
process_variation = _study(
    "process_variation", benchmark="ocean", stage="complex_alu", seed=4
)

#: name -> ablation declaration; calling one with no arguments runs the
#: study at its defaults
ABLATIONS = {
    study.function: study
    for study in (
        sampling_budget,
        heterogeneity,
        replay_penalty,
        voltage_levels,
        leakage,
        sync_topology,
        process_variation,
    )
}


if __name__ == "__main__":
    for fn in ABLATIONS.values():
        print(fn().render())
        print()
