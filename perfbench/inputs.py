"""Workload inputs derived from the benchmark seed.

The seed sets the ``seed`` arguments of the drivers that take one
(``fig_6_18``, ``fig_6_17`` and the ``sampling_budget`` and
``process_variation`` ablations) and the parameters of one synthetic
workload, registered with ``reported=True`` so the result figures
enumerate it.  :data:`DEFAULT_SEED` reproduces the paper's inputs
exactly: driver defaults and no synthetic workload.

The synthetic workload reaches every process through the engine's own
``REPRO_BOOTSTRAP`` hook (:func:`register`), so the CLI, the timed
client and remote workers all see the same registry.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

__all__ = [
    "DEFAULT_SEED",
    "SYNTH_ENV",
    "SYNTH_NAME",
    "bootstrap_env",
    "driver_kwargs",
    "register",
    "synthetic_params",
]

#: The seed that reproduces the paper's inputs.
DEFAULT_SEED = 0

#: Environment variable carrying the synthetic workload's parameters.
SYNTH_ENV = "PERFBENCH_SYNTH"

#: Registry name of the seeded synthetic workload.
SYNTH_NAME = "perfbench_synth"

#: Drivers taking a ``seed`` argument, by experiment id.
SEEDED_DRIVERS = (
    "fig_6_18",
    "fig_6_17",
    "ablation_sampling_budget",
    "ablation_process_variation",
)


def _draw(seed: int, label: str, n: int) -> int:
    """A deterministic integer in ``[0, n)`` for ``(seed, label)``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16) % n


def driver_kwargs(seed: int) -> Dict[str, Dict[str, int]]:
    """Experiment id -> keyword arguments for that driver's call."""
    if seed == DEFAULT_SEED:
        return {}
    return {
        exp_id: {"seed": _draw(seed, exp_id, 10**6)}
        for exp_id in SEEDED_DRIVERS
    }


def synthetic_params(seed: int) -> Optional[Dict[str, object]]:
    """``register_synthetic`` parameters for ``seed`` (``None``: none)."""
    if seed == DEFAULT_SEED:
        return None
    # narrow thread and interval ranges: the synthetic workload adds
    # about as much work at every seed, so run-to-run spread stays small
    spread = _draw(seed, "heterogeneity", 1001) / 1000
    return {
        "n_threads": 3 + _draw(seed, "n_threads", 2),
        "heterogeneity": round(1.2 + 2.8 * spread, 3),
        "n_intervals": 2 + _draw(seed, "n_intervals", 2),
    }


def bootstrap_env(seed: int) -> Dict[str, str]:
    """Environment that makes a ``repro`` process register the workload.

    Empty for the default seed.
    """
    params = synthetic_params(seed)
    if params is None:
        return {}
    return {
        "REPRO_BOOTSTRAP": "perfbench.inputs:register",
        SYNTH_ENV: json.dumps(params, sort_keys=True),
    }


def register() -> None:
    """``REPRO_BOOTSTRAP`` hook: register the seed's synthetic workload."""
    from repro.workloads import register_synthetic

    params = json.loads(os.environ[SYNTH_ENV])
    register_synthetic(
        SYNTH_NAME,
        reported=True,
        replace=True,
        description="perfbench seeded workload",
        **params,
    )
