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
  controller's signature).  An optional ``batch_solver`` takes the
  same arguments as aligned lists, one entry per cell.
* ``uses_theta`` -- whether the Eq. 4.4 weight influences decisions
  (``nominal`` ignores it: every core runs at the top voltage).
* ``needs_rng`` -- whether the scheme draws random samples.  The
  engine gives every cell its own stream, seeded from the spec's
  content hash (:func:`repro.engine.cells.cell_seed`), so
  registered stochastic schemes inherit ``online``'s
  scheduling-independence guarantee; an RNG batch solver must draw
  cell by cell, so a batch equals its one-element calls bit for bit.

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
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro._registry import Registry

__all__ = [
    "Scheme",
    "SCHEME_REGISTRY",
    "register_scheme",
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
    """Online-controller knobs carried by a cell spec (which sets at
    most one of ``n_samp`` and ``sampling_fraction``)."""
    from .online import OnlineKnobs

    if spec.n_samp is not None:
        return OnlineKnobs(n_samp=spec.n_samp)
    if spec.sampling_fraction is not None:
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
        One line for ``python -m repro list``.
    """

    name: str
    solver: SolverRef
    uses_theta: bool = True
    needs_rng: bool = False
    description: str = ""
    #: Optional batch evaluator: ``solver``'s arguments as aligned
    #: lists, one result per cell, *result-identical* to mapping
    #: ``solver`` over the cells; the engine's CellBatch dispatch uses
    #: it to solve a whole (benchmark, stage) run in one pass.  Not
    #: part of :meth:`digest`: it may change wall time, never results.
    #: A callable or an import path, like ``solver``.
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
        return self.evaluate_batch([problem], [theta], [spec])[0]

    def evaluate_batch(
        self,
        problems: Sequence,
        thetas: Sequence[float],
        specs: Sequence,
    ) -> List[Tuple[float, float]]:
        """Run the scheme on many intervals; one (energy, time) each.

        An RNG scheme's solver also gets, per cell, a fresh
        ``default_rng(cell_seed(spec))`` and the spec's online knobs.
        Uses ``batch_solver`` when the scheme declares one, else maps
        ``solver`` over the cells; the values are identical either way.
        """
        args = [problems, thetas]
        if self.needs_rng:
            # lazy: repro.core must stay importable without the engine
            # package (which itself builds on repro.core)
            import numpy as np

            from repro.engine.cells import cell_seed

            args.append([np.random.default_rng(cell_seed(s)) for s in specs])
            args.append([_online_knobs(s) for s in specs])
        if self.batch_solver is not None:
            outcomes = self._solve_batch(*args)
        else:
            outcomes = [self._solve(*cell) for cell in zip(*args)]
        if not self.needs_rng:
            outcomes = [solution.evaluation for solution in outcomes]
        return [(float(o.total_energy), float(o.texec)) for o in outcomes]


#: The process-wide default registry, seeded with the paper's schemes.
SCHEME_REGISTRY: Registry[Scheme] = Registry(
    Scheme,
    noun="scheme",
    remedy="Register new schemes with repro.core.schemes.register_scheme(...)",
)


def register_scheme(scheme: Scheme, *, replace: bool = False) -> Scheme:
    """Register a scheme with the default registry."""
    return SCHEME_REGISTRY.register(scheme, replace=replace)


# ----------------------------------------------------------------------
# seed entries: the paper's comparison schemes (Section 6)
# ----------------------------------------------------------------------
register_scheme(
    Scheme(
        name="synts",
        solver="repro.core.poly:solve_synts_poly",
        batch_solver="repro.core.poly:solve_synts_poly_batch",
        description="SynTS-Poly: joint (V, r) optimisation of Eq. 4.4",
    )
)
register_scheme(
    Scheme(
        name="no_ts",
        solver="repro.core.baselines:solve_no_ts",
        batch_solver="repro.core.baselines:solve_no_ts_batch",
        description="joint DVFS with speculation disabled (r = 1)",
    )
)
register_scheme(
    Scheme(
        name="nominal",
        solver="repro.core.baselines:solve_nominal",
        uses_theta=False,
        description="every core at (V_max, r = 1); the normalisation baseline",
    )
)
register_scheme(
    Scheme(
        name="per_core_ts",
        solver="repro.core.baselines:solve_per_core_ts",
        batch_solver="repro.core.baselines:solve_per_core_ts_batch",
        description="each core minimises en_i + theta*t_i in isolation",
    )
)
register_scheme(
    Scheme(
        name="online",
        solver="repro.core.online:run_online_interval",
        batch_solver="repro.core.online:run_online_batch",
        needs_rng=True,
        description="online SynTS: sampling phase + optimised phase "
        "(Section 4.3)",
    )
)
