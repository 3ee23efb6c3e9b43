"""The workload registry: benchmarks as registrations, not code forks.

``SPLASH2_PROFILES`` used to be the *only* source of benchmarks: every
cell, driver and CLI lookup went straight to that closed dict.  The
registry keeps the ten SPLASH-2 profiles as seed entries and makes the
set open:

* :func:`register_workload` adds any :class:`~.splash2.BenchmarkProfile`
  (optionally with its own per-stage error shapes);
* :func:`register_synthetic` generates a **deterministic** profile
  from scenario parameters (thread count, heterogeneity spread, error
  scale, stage-shape scaling, interval count) -- new scenarios are one
  call, no new module;
* entries flagged ``reported=True`` join :func:`reported_benchmarks`,
  the set the result-figure drivers (``headline``, ``fig_6_18``)
  enumerate -- so a registered synthetic workload flows through
  ``python -m repro headline`` with no driver changes.

Registrations live in the registering process: the serial backend
always sees them, while remote workers see only what they register
at start-up -- use the ``REPRO_BOOTSTRAP`` hook, or register at
import time of a module the workers also import.

The registry also exposes :func:`workload_fingerprint`, mixed into
experiment-level cache keys so memoised figures are invalidated when
the benchmark set changes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple,
)

from .splash2 import (
    HETEROGENEOUS_BENCHMARKS,
    SPLASH2_PROFILES,
    STAGE_SHAPES,
    BenchmarkProfile,
    StageErrorShape,
    thread_error_function,
)

if TYPE_CHECKING:
    from .model import Benchmark

# the workload model loads in build_benchmark: keying and listing
# registered workloads never import it

__all__ = [
    "WorkloadEntry",
    "WorkloadRegistry",
    "WORKLOAD_REGISTRY",
    "register_workload",
    "register_synthetic",
    "unregister_workload",
    "get_workload",
    "workload_names",
    "reported_benchmarks",
    "workload_fingerprint",
    "synthetic_profile",
    "build_benchmark",
]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload.

    Attributes
    ----------
    profile:
        The calibrated constants (threads, instruction counts, error
        scaling) the benchmark materialises from.
    reported:
        Whether result-figure drivers enumerate this benchmark (the
        paper's seven heterogeneous programs are; the excluded three
        and ad-hoc synthetics default to not).
    stage_shapes:
        Per-stage error-tail shapes; ``None`` uses the paper's
        :data:`~.splash2.STAGE_SHAPES`.  The entry keeps a read-only
        copy, so changing the caller's mapping after registration
        moves neither the entry's keys nor the benchmarks it builds.
    description:
        One line for ``python -m repro --list-benchmarks``.
    """

    profile: BenchmarkProfile
    reported: bool = False
    stage_shapes: Optional[Mapping[str, StageErrorShape]] = None
    description: str = ""

    def __post_init__(self):
        # the digest is memoised, so the shapes must never change
        if self.stage_shapes is not None:
            object.__setattr__(
                self, "stage_shapes", MappingProxyType(dict(self.stage_shapes))
            )

    @property
    def name(self) -> str:
        return self.profile.name

    def shapes(self) -> Mapping[str, StageErrorShape]:
        return self.stage_shapes if self.stage_shapes is not None else STAGE_SHAPES

    def digest(self) -> Dict[str, Any]:
        """Plain-data image of everything that changes results.

        Participates in cell and experiment cache keys, so
        re-registering a *name* with different parameters (profile,
        stage shapes, reported flag) can never serve stale cached
        numbers -- within a session or across a shared ``--cache-dir``.
        Every call returns the same dict (see :attr:`_digest`); treat
        it as read-only.
        """
        return self._digest

    @cached_property
    def _digest(self) -> Dict[str, Any]:
        """:meth:`digest`'s dict, built once per entry.

        Every experiment key mixes in the whole registry's digests;
        the recursive ``asdict`` walk over each profile is too
        expensive to redo per key.  Safe to memoise on the instance
        for the same reason as :attr:`digest_json`.
        """
        return {
            "profile": asdict(self.profile),
            "reported": self.reported,
            "stage_shapes": (
                None
                if self.stage_shapes is None
                else {k: asdict(v) for k, v in self.stage_shapes.items()}
            ),
        }

    @cached_property
    def digest_json(self) -> str:
        """Canonical JSON of :meth:`digest`, computed once per entry.

        Cell cache keys mix this in for every spec; the recursive
        ``asdict`` walk over the profile is too expensive to redo per
        cell.  Safe to memoise on the instance: entries are frozen
        (their stage shapes are a read-only copy), and re-registering
        a name installs a *new* entry object.
        """
        from repro.serialization import canonical_json

        return canonical_json(self.digest())


def _invalidate_problem_memo() -> None:
    """Drop the engine's per-process problem memo (if it is loaded).

    The memo is keyed by benchmark *name*; re-registering a name with
    different parameters must not serve stale problems.  ``cells`` may
    be mid-import (it imports this module), in which case its memo
    does not exist yet and there is nothing to drop.
    """
    memo = getattr(
        sys.modules.get("repro.engine.cells"), "_interval_problems", None
    )
    if memo is not None:
        memo.cache_clear()


class WorkloadRegistry:
    """Name -> :class:`WorkloadEntry`, with actionable failure modes.

    ``version`` counts registrations and removals, so a memo of
    :meth:`fingerprint` knows when it is stale.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, WorkloadEntry] = {}
        self.version = 0

    # -- registration --------------------------------------------------
    def register(
        self, entry: WorkloadEntry, *, replace: bool = False
    ) -> WorkloadEntry:
        if not isinstance(entry, WorkloadEntry):
            raise TypeError(
                f"expected a WorkloadEntry, got {type(entry).__name__}"
            )
        if entry.name in self._entries and not replace:
            raise ValueError(
                f"workload {entry.name!r} is already registered; pass "
                "replace=True to override it deliberately"
            )
        self._entries[entry.name] = entry
        # bumped after the change, so a memo built from the new
        # contents is never filed under the old version
        self.version += 1
        _invalidate_problem_memo()
        return entry

    def unregister(self, name: str) -> None:
        if name not in self._entries:
            raise KeyError(self._unknown_message(name))
        del self._entries[name]
        self.version += 1
        _invalidate_problem_memo()

    # -- lookup --------------------------------------------------------
    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown benchmark {name!r}; registered workloads: "
            f"{sorted(self._entries)}. Register new workloads with "
            "repro.workloads.register_workload(...) or "
            "register_synthetic(...)"
        )

    def get(self, name: str) -> WorkloadEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(self._unknown_message(name)) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def reported_names(self) -> Tuple[str, ...]:
        """Benchmarks the result figures enumerate (registration order)."""
        return tuple(
            name for name, e in self._entries.items() if e.reported
        )

    def fingerprint(self) -> Tuple[Tuple[str, Dict[str, Any]], ...]:
        """Stable *content* image of the registered set, for cache keys.

        Name plus :meth:`WorkloadEntry.digest` per entry: registering,
        unregistering, or re-registering a name with different
        parameters all change the fingerprint.
        """
        return tuple(
            (name, self._entries[name].digest())
            for name in sorted(self._entries)
        )

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[WorkloadEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide default registry, seeded with SPLASH-2.
WORKLOAD_REGISTRY = WorkloadRegistry()


def register_workload(
    profile: BenchmarkProfile,
    *,
    reported: bool = False,
    stage_shapes: Optional[Mapping[str, StageErrorShape]] = None,
    description: str = "",
    replace: bool = False,
) -> WorkloadEntry:
    """Register a profile with the default registry."""
    return WORKLOAD_REGISTRY.register(
        WorkloadEntry(
            profile=profile,
            reported=reported,
            stage_shapes=stage_shapes,
            description=description,
        ),
        replace=replace,
    )


def unregister_workload(name: str) -> None:
    """Remove a workload from the default registry."""
    WORKLOAD_REGISTRY.unregister(name)


def get_workload(name: str) -> WorkloadEntry:
    """Look a workload up in the default registry (actionable KeyError)."""
    return WORKLOAD_REGISTRY.get(name)


def workload_names() -> Tuple[str, ...]:
    """Names registered with the default registry."""
    return WORKLOAD_REGISTRY.names()


def reported_benchmarks() -> Tuple[str, ...]:
    """The benchmarks result-figure drivers enumerate right now."""
    return WORKLOAD_REGISTRY.reported_names()


def workload_fingerprint() -> Tuple[Tuple[str, Dict[str, Any]], ...]:
    """Default registry fingerprint (participates in experiment keys)."""
    return WORKLOAD_REGISTRY.fingerprint()


# ----------------------------------------------------------------------
# deterministic synthetic workloads
# ----------------------------------------------------------------------
def synthetic_profile(
    name: str,
    n_threads: int = 4,
    heterogeneity: float = 2.0,
    error_scale: float = 1.0,
    base_instructions: int = 500_000,
    cpi_base: float = 1.30,
    imbalance: float = 0.03,
    n_intervals: int = 3,
) -> BenchmarkProfile:
    """A deterministic :class:`BenchmarkProfile` from scenario knobs.

    Everything is a closed-form function of the parameters (no RNG):
    thread multipliers span ``heterogeneity`` geometrically (thread 0
    most error-prone, matching the Fig. 3.5 convention), instruction
    counts and CPIs get a small deterministic per-thread ripple of
    relative size ``imbalance``, and interval drift follows a bounded
    sinusoid -- so the same parameters always yield the same profile,
    in every process.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be positive")
    if heterogeneity < 1.0:
        raise ValueError("heterogeneity is a max/min spread; must be >= 1")
    if n_intervals < 1:
        raise ValueError("n_intervals must be positive")
    if n_threads == 1:
        multipliers = (heterogeneity,)
    else:
        ratio = heterogeneity ** (1.0 / (n_threads - 1))
        multipliers = tuple(
            round(heterogeneity / ratio**i, 6) for i in range(n_threads)
        )
    ripple = tuple(
        1.0 + imbalance * math.sin(2.1 * (i + 1)) for i in range(n_threads)
    )
    instructions = tuple(
        max(1, int(base_instructions * r)) for r in ripple
    )
    cpis = tuple(round(cpi_base * (2.0 - r), 4) for r in ripple)
    drift = tuple(
        round(1.0 + 0.08 * math.sin(1.7 * (k + 1)), 6)
        for k in range(n_intervals)
    )
    return BenchmarkProfile(
        name=name,
        thread_multipliers=multipliers,
        error_scale=error_scale,
        instructions=instructions,
        cpi_base=cpis,
        interval_drift=drift,
        n_intervals=n_intervals,
    )


def register_synthetic(
    name: str,
    *,
    reported: bool = False,
    stage_scale: Optional[Mapping[str, float]] = None,
    description: str = "",
    replace: bool = False,
    **params,
) -> WorkloadEntry:
    """Generate and register a synthetic workload in one call.

    ``params`` are forwarded to :func:`synthetic_profile`;
    ``stage_scale`` optionally scales the activity factor of named
    pipe stages (a cheap way to give a scenario its own stage shapes
    without writing :class:`StageErrorShape` literals).
    """
    shapes: Optional[Mapping[str, StageErrorShape]] = None
    if stage_scale is not None:
        unknown = set(stage_scale) - set(STAGE_SHAPES)
        if unknown:
            raise KeyError(
                f"unknown stages {sorted(unknown)}; have "
                f"{sorted(STAGE_SHAPES)}"
            )
        shapes = {
            stage: (
                StageErrorShape(
                    a=shape.a,
                    b=shape.b,
                    lo=shape.lo,
                    hi=shape.hi,
                    scale_p=min(1.0, shape.scale_p * stage_scale[stage]),
                    sensitivity=shape.sensitivity,
                )
                if stage in stage_scale
                else shape
            )
            for stage, shape in STAGE_SHAPES.items()
        }
    return register_workload(
        synthetic_profile(name, **params),
        reported=reported,
        stage_shapes=shapes,
        description=description or "synthetic workload",
        replace=replace,
    )


# ----------------------------------------------------------------------
# materialisation (registry-backed twin of the old splash2 builder)
# ----------------------------------------------------------------------
def build_benchmark(
    name: str, stages: Sequence[str] | None = None
) -> Benchmark:
    """Materialise a registered workload as a :class:`Benchmark`.

    ``stages`` defaults to all three analysed pipe stages; each thread
    carries one error function per stage, drawn from the entry's own
    stage shapes when it has them.
    """
    from .model import BarrierInterval, Benchmark, ThreadWorkload

    entry = WORKLOAD_REGISTRY.get(name)
    profile = entry.profile
    shapes = entry.shapes()
    stage_list = list(stages) if stages is not None else list(shapes)

    intervals = []
    for k in range(profile.n_intervals):
        drift = profile.interval_drift[k]
        threads = tuple(
            ThreadWorkload(
                instructions=max(1, int(profile.instructions[i] * drift)),
                cpi_base=profile.cpi_base[i],
                error_functions={
                    s: thread_error_function(profile, s, i, shapes=shapes)
                    for s in stage_list
                },
            )
            for i in range(profile.n_threads)
        )
        intervals.append(BarrierInterval(threads=threads))
    return Benchmark(
        name=name,
        intervals=tuple(intervals),
        heterogeneous=profile.heterogeneity > 1.1,
    )


# seed the registry with the ten characterised SPLASH-2 programs;
# the paper's seven heterogeneous benchmarks are the reported set
for _name, _profile in SPLASH2_PROFILES.items():
    register_workload(
        _profile,
        reported=_name in HETEROGENEOUS_BENCHMARKS,
        description=(
            "SPLASH-2 (reported)"
            if _name in HETEROGENEOUS_BENCHMARKS
            else "SPLASH-2 (excluded: Section 5.4)"
        ),
    )
del _name, _profile
