"""The scheme registry: every way a cell can be solved, as data.

Historically the engine carried a closed ``OFFLINE_SCHEMES`` dict plus
an ``if spec.scheme == "online"`` special case; adding a comparison
scheme meant editing the engine.  A :class:`Scheme` entry instead
*declares* everything the engine needs to run it:

* ``solver`` -- the interval solver, as a callable or as an import
  path ``"package.module:function"`` resolved on first call (so a
  registry lookup never imports solver code).  Offline solvers take
  ``(problem, theta) -> SynTSSolution``; RNG-driven solvers take
  ``(problem, theta, rng, knobs) -> IntervalOutcome`` (the online
  controller's signature).
* ``uses_theta`` -- whether the Eq. 4.4 weight influences decisions
  (``nominal`` ignores it: every core runs at the top voltage).
* ``needs_rng`` -- whether the scheme draws random samples.  The
  engine derives the stream from the cell spec's content hash
  (:func:`repro.engine.cells.cell_seed`), so registered stochastic
  schemes inherit the same scheduling-independence guarantee as
  ``online``.

The default :data:`SCHEME_REGISTRY` is seeded with the paper's four
offline schemes and the online controller -- ``online`` is just
another entry, not a code path.  New comparison schemes are a
:func:`register_scheme` call away; the serial backend sees runtime
registrations always, while remote workers need the
``REPRO_BOOTSTRAP`` hook or a registration at import time of a
module they also import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import import_module
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Scheme",
    "SchemeRegistry",
    "SCHEME_REGISTRY",
    "register_scheme",
    "register_offline_scheme",
    "get_scheme",
    "scheme_names",
    "scheme_fingerprint",
]


#: A solver: a callable, or its ``"package.module:qualname"`` path.
SolverRef = Union[Callable, str]


def _solver_id(solver: SolverRef) -> str:
    """``module.qualname`` of a solver, without importing a path."""
    if isinstance(solver, str):
        return solver.replace(":", ".", 1)
    return (
        f"{getattr(solver, '__module__', '?')}."
        f"{getattr(solver, '__qualname__', repr(solver))}"
    )


def _resolve_solver(solver: SolverRef) -> Callable:
    """The callable behind a solver reference.

    A path must name the function where it is defined (not a
    re-export), so its digest equals the one of the callable itself.
    """
    if not isinstance(solver, str):
        return solver
    module, _, qualname = solver.partition(":")
    target = import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    if _solver_id(target) != _solver_id(solver):
        raise ValueError(
            f"solver path {solver!r} resolves to {_solver_id(target)}; "
            "name the function where it is defined"
        )
    return target


def _online_knobs(spec):
    """Online-controller knobs carried by a cell spec."""
    from .online import OnlineKnobs

    if getattr(spec, "n_samp", None) is not None:
        return OnlineKnobs(n_samp=spec.n_samp)
    if getattr(spec, "sampling_fraction", None) is not None:
        return OnlineKnobs(sampling_fraction=spec.sampling_fraction)
    return OnlineKnobs()


@dataclass(frozen=True)
class Scheme:
    """One registered way of solving an interval cell.

    Attributes
    ----------
    name:
        Registry key; the value cells carry in ``CellSpec.scheme``.
    solver:
        Interval solver, or its ``"package.module:function"`` import
        path (see the module docstring for the two accepted
        signatures, selected by ``needs_rng``).
    uses_theta:
        Whether the Eq. 4.4 weight changes the scheme's decisions.
    needs_rng:
        Whether the solver consumes a random stream (derived from the
        spec's content hash, never shared between cells).
    description:
        One line for ``python -m repro --list-schemes``.
    """

    name: str
    solver: SolverRef
    uses_theta: bool = True
    needs_rng: bool = False
    description: str = ""
    #: Optional batch evaluator ``(problems, thetas) -> [SynTSSolution]``.
    #: Must be *result-identical* to mapping ``solver`` over the
    #: intervals (the same contract executor backends honour against
    #: the serial reference); the engine's CellBatch dispatch uses it
    #: to solve a whole (benchmark, stage) run in one pass.  Not part
    #: of :meth:`digest`: a batch solver may never change results,
    #: only wall time.  A callable or an import path, like ``solver``.
    batch_solver: Optional[SolverRef] = None

    def __post_init__(self):
        for ref in (self.solver, self.batch_solver):
            if isinstance(ref, str) and ":" not in ref:
                raise ValueError(
                    f"solver path {ref!r} must read 'package.module:function'"
                )

    def digest(self) -> Tuple[str, str, bool, bool]:
        """Plain-data image for cache keys.

        The solver is identified by ``module.qualname`` (callables have
        no stable content hash), whether it was given as a callable or
        as an import path, so replacing a name with a *different
        function* changes the digest.  Best-effort by construction:
        swapping in another lambda defined at the same spot, or
        editing a solver's body in place, is invisible -- the
        package-version salt in every key covers released changes.
        """
        return (
            self.name,
            _solver_id(self.solver),
            self.uses_theta,
            self.needs_rng,
        )

    @cached_property
    def _solve(self) -> Callable:
        return _resolve_solver(self.solver)

    @cached_property
    def _solve_batch(self) -> Callable:
        return _resolve_solver(self.batch_solver)

    @cached_property
    def digest_json(self) -> str:
        """Canonical JSON of :meth:`digest`, computed once per entry
        (cell keys mix it in for every spec; entries are frozen and
        re-registration installs a new object)."""
        from repro.serialization import canonical_json

        return canonical_json(list(self.digest()))

    def evaluate(self, problem, theta: float, spec) -> Tuple[float, float]:
        """Run the scheme on one interval; return (energy, time)."""
        if self.needs_rng:
            # lazy: repro.core must stay importable without the engine
            # package (which itself builds on repro.core)
            import numpy as np

            from repro.engine.cells import cell_seed

            rng = np.random.default_rng(cell_seed(spec))
            outcome = self._solve(problem, theta, rng, _online_knobs(spec))
            return float(outcome.total_energy), float(outcome.texec)
        solution = self._solve(problem, theta)
        evaluation = solution.evaluation
        return float(evaluation.total_energy), float(evaluation.texec)

    @property
    def supports_batch(self) -> bool:
        """Whether whole-run batch evaluation is available."""
        return self.batch_solver is not None and not self.needs_rng

    def evaluate_batch(
        self,
        problems: Sequence,
        thetas: Sequence[float],
        specs: Sequence,
    ) -> List[Tuple[float, float]]:
        """Run the scheme on many intervals; one (energy, time) each.

        Uses ``batch_solver`` when the scheme declares one (offline
        schemes only -- RNG-driven schemes derive a stream per cell and
        always evaluate per interval); otherwise falls back to the
        per-interval path.  Either way the values are identical to
        calling :meth:`evaluate` per cell.
        """
        if self.supports_batch:
            solutions = self._solve_batch(problems, thetas)
            return [
                (float(s.evaluation.total_energy), float(s.evaluation.texec))
                for s in solutions
            ]
        return [
            self.evaluate(problem, theta, spec)
            for problem, theta, spec in zip(problems, thetas, specs)
        ]


class SchemeRegistry:
    """Name -> :class:`Scheme`, with actionable failure modes.

    Duplicate registration raises (pass ``replace=True`` to override
    deliberately); unknown lookups name the registered schemes and the
    registration entry point.  ``version`` counts registrations and
    removals, so a memo of :meth:`fingerprint` knows when it is stale.
    """

    def __init__(self) -> None:
        self._schemes: Dict[str, Scheme] = {}
        self.version = 0

    # -- registration --------------------------------------------------
    def register(self, scheme: Scheme, *, replace: bool = False) -> Scheme:
        if not isinstance(scheme, Scheme):
            raise TypeError(
                f"expected a Scheme, got {type(scheme).__name__}"
            )
        if scheme.name in self._schemes and not replace:
            raise ValueError(
                f"scheme {scheme.name!r} is already registered; pass "
                "replace=True to override it deliberately"
            )
        self._schemes[scheme.name] = scheme
        # bumped after the change, so a memo built from the new
        # contents is never filed under the old version
        self.version += 1
        return scheme

    def unregister(self, name: str) -> None:
        if name not in self._schemes:
            raise KeyError(self._unknown_message(name))
        del self._schemes[name]
        self.version += 1

    # -- lookup --------------------------------------------------------
    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown scheme {name!r}; registered schemes: "
            f"{sorted(self._schemes)}. Register new schemes with "
            "repro.core.schemes.register_scheme(...)"
        )

    def get(self, name: str) -> Scheme:
        try:
            return self._schemes[name]
        except KeyError:
            raise KeyError(self._unknown_message(name)) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._schemes)

    def fingerprint(self) -> Tuple[Tuple[str, str, bool, bool], ...]:
        """Stable content image of the registered set, for cache keys."""
        return tuple(
            self._schemes[name].digest() for name in sorted(self._schemes)
        )

    def __contains__(self, name: object) -> bool:
        return name in self._schemes

    def __iter__(self) -> Iterator[Scheme]:
        return iter(self._schemes.values())

    def __len__(self) -> int:
        return len(self._schemes)


#: The process-wide default registry, seeded with the paper's schemes.
SCHEME_REGISTRY = SchemeRegistry()


def register_scheme(scheme: Scheme, *, replace: bool = False) -> Scheme:
    """Register a scheme with the default registry."""
    return SCHEME_REGISTRY.register(scheme, replace=replace)


def register_offline_scheme(
    name: str,
    solver: SolverRef,
    *,
    uses_theta: bool = True,
    description: str = "",
    batch_solver: Optional[SolverRef] = None,
    replace: bool = False,
) -> Scheme:
    """Shorthand: register a ``(problem, theta) -> SynTSSolution`` solver."""
    return register_scheme(
        Scheme(
            name=name,
            solver=solver,
            uses_theta=uses_theta,
            description=description,
            batch_solver=batch_solver,
        ),
        replace=replace,
    )


def get_scheme(name: str) -> Scheme:
    """Look a scheme up in the default registry (actionable KeyError)."""
    return SCHEME_REGISTRY.get(name)


def scheme_names() -> Tuple[str, ...]:
    """Names registered with the default registry."""
    return SCHEME_REGISTRY.names()


def scheme_fingerprint() -> Tuple[Tuple[str, str, bool, bool], ...]:
    """Default registry fingerprint (participates in cache keys)."""
    return SCHEME_REGISTRY.fingerprint()


# ----------------------------------------------------------------------
# seed entries: the paper's comparison schemes (Section 6)
# ----------------------------------------------------------------------
register_offline_scheme(
    "synts",
    "repro.core.poly:solve_synts_poly",
    batch_solver="repro.core.poly:solve_synts_poly_batch",
    description="SynTS-Poly: joint (V, r) optimisation of Eq. 4.4",
)
register_offline_scheme(
    "no_ts",
    "repro.core.baselines:solve_no_ts",
    batch_solver="repro.core.baselines:solve_no_ts_batch",
    description="joint DVFS with speculation disabled (r = 1)",
)
register_offline_scheme(
    "nominal",
    "repro.core.baselines:solve_nominal",
    uses_theta=False,
    description="every core at (V_max, r = 1); the normalisation baseline",
)
register_offline_scheme(
    "per_core_ts",
    "repro.core.baselines:solve_per_core_ts",
    batch_solver="repro.core.baselines:solve_per_core_ts_batch",
    description="each core minimises en_i + theta*t_i in isolation",
)
register_scheme(
    Scheme(
        name="online",
        solver="repro.core.online:run_online_interval",
        needs_rng=True,
        description="online SynTS: sampling phase + optimised phase "
        "(Section 4.3)",
    )
)
