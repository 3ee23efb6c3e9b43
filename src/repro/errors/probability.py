"""Error-probability functions ``err(r)``.

The paper's system model (Section 4.1) abstracts each thread's timing
behaviour into a single function: the probability that an instruction
suffers a timing error when the core runs at timing-speculation ratio
``r`` (clock period = ``r`` x nominal).  ``err`` is non-increasing in
``r``: a longer clock period can only reduce errors.

Three concrete families are provided:

* :class:`BetaTailErrorFunction` -- survival function of a Beta-shaped
  sensitised-delay distribution; the parametric form used by the
  calibrated SPLASH-2 workload profiles.
* :class:`TabulatedErrorFunction` -- monotone piecewise-linear
  interpolation of ``(r, p)`` samples; produced by the online sampling
  estimator and by circuit-level characterisation.
* :class:`EmpiricalErrorFunction` -- exact empirical tail of a raw
  sensitised-delay sample array from the logic simulator.

All are plain callables ``err(r) -> p`` that also accept numpy arrays.
numpy is imported by the code that evaluates, so building a workload
registry (which holds these objects) never loads it.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ErrorFunction",
    "BetaTailErrorFunction",
    "TabulatedErrorFunction",
    "EmpiricalErrorFunction",
    "ZeroErrorFunction",
    "check_monotone_nonincreasing",
    "clear_curve_cache",
]


#: Serialises the first :func:`_betaincc` call: remote workers compute
#: on one thread per connection, and the stub below must never be seen
#: by a second loader.
_BETAINCC_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _betaincc():
    """scipy's compiled ``betaincc`` ufunc, loaded without ``scipy.special``.

    The package's ``__init__`` costs ~0.3 s (more than 80 % of it
    the array-API shim); the ``_ufuncs`` extension that holds ``betaincc``
    costs ~6 ms.  An unexecuted stub stands in for the package while
    the extension loads, and is removed again, so a later real
    ``import scipy.special`` runs the full ``__init__`` and reuses the
    loaded extension: ``scipy.special.betaincc`` then *is* this object.
    Any failure falls back to the public import.
    """
    with _BETAINCC_LOCK:
        if "scipy.special" not in sys.modules:
            import importlib
            import importlib.util

            import numpy as np
            import scipy

            try:
                stub = importlib.util.module_from_spec(
                    importlib.util.find_spec("scipy.special")
                )
                sys.modules["scipy.special"] = stub
                try:
                    ufunc = importlib.import_module("scipy.special._ufuncs").betaincc
                finally:
                    if sys.modules.get("scipy.special") is stub:
                        del sys.modules["scipy.special"]
                    # vars(), not getattr(): scipy's module __getattr__
                    # would import the real package
                    if vars(scipy).get("special") is stub:
                        del scipy.special
                if isinstance(ufunc, np.ufunc):
                    return ufunc
            except (ImportError, AttributeError):
                pass
    from scipy.special import betaincc

    return betaincc


def _beta_sf(x, a, b):
    """Survival function of Beta(a, b), evaluated elementwise.

    ``betaincc(a, b, x)`` is exactly what ``scipy.stats.beta.sf``
    computes for in-support ``x`` (bit identical), minus the
    distribution machinery's ~8x per-call overhead and the ~0.5 s
    ``scipy.stats`` import.  :func:`_betaincc` loads the very ufunc
    ``scipy.special.betaincc`` names (scipy >= 1.11) from scipy's
    compiled extension, without the ``scipy.special`` package import.
    Deferred: warm cache-only sessions never evaluate an error
    function.
    """
    return _betaincc()(a, b, x)


@lru_cache(maxsize=4096)
def _beta_curve_cached(
    err: "BetaTailErrorFunction", ratios: tuple
) -> np.ndarray:
    import numpy as np

    return np.asarray(err(np.asarray(ratios, dtype=float)), dtype=float)


def clear_curve_cache() -> None:
    """Drop memoised Beta-tail curves (cold-timing harnesses)."""
    _beta_curve_cached.cache_clear()


class ErrorFunction:
    """Base class: a non-increasing map from TSR ``r`` to probability."""

    def __call__(self, r):
        raise NotImplementedError

    def curve(self, ratios: Sequence[float]) -> np.ndarray:
        """Vector of probabilities over a ratio grid.

        Evaluated as one array call (every in-repo family is an
        elementwise ufunc, so this is bit-identical to the historical
        scalar loop); callables that only support scalars fall back to
        the loop transparently.
        """
        import numpy as np

        grid = np.asarray(ratios, dtype=float)
        try:
            out = np.asarray(self(grid), dtype=float)
        except Exception:
            out = None
        if out is None or out.shape != grid.shape:
            return np.asarray([float(self(float(r))) for r in grid])
        return out


@dataclass(frozen=True)
class ZeroErrorFunction(ErrorFunction):
    """A thread that never errs (e.g. r = 1 operation by definition)."""

    def __call__(self, r):
        import numpy as np

        return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0


@dataclass(frozen=True)
class BetaTailErrorFunction(ErrorFunction):
    """``err(r) = scale_p * P[D > r]`` for Beta-distributed delay D.

    The normalised sensitised delay is modelled as
    ``D ~ lo + (hi - lo) * Beta(a, b)``: delays live in ``[lo, hi]``
    with ``hi <= 1`` (the STA critical path bounds every sensitised
    path).  ``scale_p`` accounts for the fraction of instructions that
    exercise the stage at all (an instruction that doesn't toggle the
    stage cannot err in it).

    Attributes
    ----------
    a, b:
        Beta shape parameters; larger ``b/a`` pushes mass toward
        ``lo`` (short typical paths, rare long ones).
    lo, hi:
        Support of the normalised delay distribution.
    scale_p:
        Activity factor in ``(0, 1]``.
    """

    a: float
    b: float
    lo: float = 0.0
    hi: float = 1.0
    scale_p: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("Beta shape parameters must be positive")
        if not (0.0 <= self.lo < self.hi <= 1.0 + 1e-12):
            raise ValueError(f"invalid support [{self.lo}, {self.hi}]")
        if not (0.0 < self.scale_p <= 1.0):
            raise ValueError("scale_p must be in (0, 1]")

    def __call__(self, r):
        import numpy as np

        r = np.asarray(r, dtype=float)
        x = (r - self.lo) / (self.hi - self.lo)
        p = self.scale_p * _beta_sf(np.clip(x, 0.0, 1.0), self.a, self.b)
        p = np.where(r >= self.hi, 0.0, p)
        p = np.where(r <= self.lo, self.scale_p, p)
        return float(p) if p.ndim == 0 else p

    def curve(self, ratios: Sequence[float]) -> np.ndarray:
        """Memoised grid evaluation.

        The parameters are frozen, so ``(self, grid)`` fully
        determines the curve; every barrier interval of a benchmark
        stage shares its threads' error functions, and the solvers
        query the same TSR grid over and over -- caching here turns
        the per-problem Beta tail into a dictionary lookup.
        """
        key = tuple(float(r) for r in ratios)
        return _beta_curve_cached(self, key).copy()

    def sample_delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw sensitised-delay samples consistent with this tail.

        A delay is drawn from the Beta body with probability
        ``scale_p``; otherwise the instruction does not exercise the
        stage and its delay is ``lo`` (can never err above ``lo``).
        """
        import numpy as np

        body = self.lo + (self.hi - self.lo) * rng.beta(self.a, self.b, size=n)
        active = rng.random(n) < self.scale_p
        return np.where(active, body, self.lo)


class TabulatedErrorFunction(ErrorFunction):
    """Monotone piecewise-linear interpolation of ``(r, p)`` points.

    Non-increasing monotonicity is *enforced* at construction (points
    violating it raise unless ``project=True``, in which case they are
    isotonically projected -- the behaviour the online estimator
    relies on).  Queries outside the tabulated range clamp to the end
    values.
    """

    def __init__(
        self,
        ratios: Sequence[float],
        probs: Sequence[float],
        project: bool = False,
    ):
        import numpy as np

        r = np.asarray(ratios, dtype=float)
        p = np.asarray(probs, dtype=float)
        if r.ndim != 1 or r.shape != p.shape or len(r) < 2:
            raise ValueError("need matching 1-D arrays of >= 2 points")
        order = np.argsort(r)
        r, p = r[order], p[order]
        if np.any(np.diff(r) <= 0):
            raise ValueError("ratios must be distinct")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        if np.any(np.diff(p) > 1e-12):
            if not project:
                raise ValueError(
                    "error probabilities must be non-increasing in r "
                    "(pass project=True to isotonically project)"
                )
            from .fitting import isotonic_nonincreasing

            p = isotonic_nonincreasing(p)
        self._r = r
        self._p = p

    @property
    def ratios(self) -> np.ndarray:
        return self._r.copy()

    @property
    def probs(self) -> np.ndarray:
        return self._p.copy()

    def __call__(self, r):
        import numpy as np

        out = np.interp(np.asarray(r, dtype=float), self._r, self._p)
        return float(out) if out.ndim == 0 else out


class EmpiricalErrorFunction(ErrorFunction):
    """Exact tail of a raw sensitised-delay sample array.

    ``err(r)`` is the fraction of samples strictly above ``r`` --
    automatically non-increasing, no fitting involved.  This is the
    function the cross-layer characterisation produces.
    """

    def __init__(self, normalized_delays: Sequence[float]):
        import numpy as np

        d = np.sort(np.asarray(normalized_delays, dtype=float))
        if d.ndim != 1 or len(d) == 0:
            raise ValueError("need a non-empty 1-D delay sample array")
        if d[0] < -1e-12:
            raise ValueError("normalised delays must be non-negative")
        self._sorted = d

    @property
    def n_samples(self) -> int:
        return len(self._sorted)

    def __call__(self, r):
        import numpy as np

        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self._sorted, r, side="right")
        out = 1.0 - idx / len(self._sorted)
        return float(out) if out.ndim == 0 else out


def check_monotone_nonincreasing(
    err: ErrorFunction, ratios: Sequence[float], tol: float = 1e-9
) -> bool:
    """True iff ``err`` is non-increasing over the given grid."""
    import numpy as np

    values = err.curve(ratios)
    order = np.argsort(np.asarray(ratios, dtype=float))
    values = values[order]
    return bool(np.all(np.diff(values) <= tol))
