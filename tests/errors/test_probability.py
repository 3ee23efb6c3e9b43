"""Tests for error-probability function families."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors.probability import (
    BetaTailErrorFunction,
    EmpiricalErrorFunction,
    TabulatedErrorFunction,
    ZeroErrorFunction,
    check_monotone_nonincreasing,
)

RATIOS = np.linspace(0.5, 1.0, 21)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestBetaTail:
    def test_bounds(self):
        f = BetaTailErrorFunction(a=2.0, b=5.0, lo=0.4, hi=1.0, scale_p=0.3)
        for r in RATIOS:
            assert 0.0 <= f(float(r)) <= 0.3 + 1e-12

    def test_monotone(self):
        f = BetaTailErrorFunction(a=2.0, b=5.0, lo=0.4, hi=1.0, scale_p=0.5)
        assert check_monotone_nonincreasing(f, RATIOS)

    def test_zero_beyond_support(self):
        f = BetaTailErrorFunction(a=2.0, b=5.0, lo=0.4, hi=0.9)
        assert f(0.95) == 0.0
        assert f(1.0) == 0.0

    def test_saturates_below_support(self):
        f = BetaTailErrorFunction(a=2.0, b=5.0, lo=0.4, hi=0.9, scale_p=0.7)
        assert f(0.3) == pytest.approx(0.7)

    def test_vectorised_call(self):
        f = BetaTailErrorFunction(a=2.0, b=5.0)
        out = f(RATIOS)
        assert out.shape == RATIOS.shape

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BetaTailErrorFunction(a=-1.0, b=2.0)
        with pytest.raises(ValueError):
            BetaTailErrorFunction(a=1.0, b=2.0, lo=0.9, hi=0.5)
        with pytest.raises(ValueError):
            BetaTailErrorFunction(a=1.0, b=2.0, scale_p=0.0)
        with pytest.raises(ValueError):
            BetaTailErrorFunction(a=1.0, b=2.0, scale_p=1.5)

    def test_sample_delays_match_tail(self):
        """Empirical tail of drawn samples must match the analytic
        survival function (the self-consistency the online estimator
        depends on)."""
        f = BetaTailErrorFunction(a=3.0, b=6.0, lo=0.4, hi=1.0, scale_p=0.6)
        rng = np.random.default_rng(3)
        d = f.sample_delays(200_000, rng)
        for r in (0.55, 0.7, 0.85):
            assert np.mean(d > r) == pytest.approx(float(f(r)), abs=5e-3)

    @given(
        a=st.floats(min_value=0.5, max_value=10),
        b=st.floats(min_value=0.5, max_value=10),
        scale=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_for_any_shape(self, a, b, scale):
        f = BetaTailErrorFunction(a=a, b=b, lo=0.3, hi=1.0, scale_p=scale)
        assert check_monotone_nonincreasing(f, RATIOS)


class TestTabulated:
    def test_interpolates(self):
        f = TabulatedErrorFunction([0.6, 0.8, 1.0], [0.4, 0.1, 0.0])
        assert f(0.7) == pytest.approx(0.25)
        assert f(0.8) == pytest.approx(0.1)

    def test_clamps_outside_range(self):
        f = TabulatedErrorFunction([0.6, 1.0], [0.4, 0.0])
        assert f(0.5) == pytest.approx(0.4)
        assert f(1.1) == pytest.approx(0.0)

    def test_rejects_non_monotone_without_projection(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TabulatedErrorFunction([0.6, 0.8, 1.0], [0.1, 0.3, 0.0])

    def test_projection_restores_monotonicity(self):
        f = TabulatedErrorFunction(
            [0.6, 0.8, 1.0], [0.1, 0.3, 0.0], project=True
        )
        assert check_monotone_nonincreasing(f, [0.6, 0.7, 0.8, 0.9, 1.0])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            TabulatedErrorFunction([0.6, 1.0], [1.4, 0.0])

    def test_rejects_duplicate_ratios(self):
        with pytest.raises(ValueError):
            TabulatedErrorFunction([0.6, 0.6], [0.1, 0.1])

    def test_accessors(self):
        f = TabulatedErrorFunction([1.0, 0.6], [0.0, 0.4])
        np.testing.assert_array_equal(f.ratios, [0.6, 1.0])
        np.testing.assert_array_equal(f.probs, [0.4, 0.0])


class TestEmpirical:
    def test_exact_tail(self):
        f = EmpiricalErrorFunction([0.2, 0.4, 0.6, 0.8])
        assert f(0.5) == pytest.approx(0.5)
        assert f(0.8) == pytest.approx(0.0)
        assert f(0.1) == pytest.approx(1.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        f = EmpiricalErrorFunction(rng.random(500))
        assert check_monotone_nonincreasing(f, RATIOS)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalErrorFunction([])

    def test_n_samples(self):
        assert EmpiricalErrorFunction([0.1, 0.2]).n_samples == 2


class TestZero:
    def test_always_zero(self):
        f = ZeroErrorFunction()
        assert f(0.1) == 0.0
        assert np.all(f(RATIOS) == 0.0)


def _python(*parts: str) -> str:
    """Run the dedented ``parts``, in order, in a fresh interpreter;
    return its stdout.

    The loader's effects live in ``sys.modules``, which the test
    session has long since filled, so each case starts clean.
    ``SCIPY_ARRAY_API`` is cleared: with it set, scipy wraps its
    ufuncs, and ``scipy.special.betaincc`` is no longer the ufunc.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    env.pop("SCIPY_ARRAY_API", None)
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, parts))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Prints a digest of ``_beta_sf`` over a dense grid of the four Beta
#: shapes the SPLASH-2 profiles use plus random shapes in [0.5, 20],
#: after checking it against the public ``scipy.special.betaincc``,
#: which it imports only after evaluating.
_GRID_DIGEST = """
import hashlib
import numpy as np
from repro.errors.probability import _beta_sf

x = np.linspace(0.0, 1.0, 4001)
shapes = [(5.5, 4.0), (6.2, 4.2), (6.3, 7.0), (2.0, 6.7)]
shapes += [tuple(s) for s in np.random.default_rng(0).uniform(0.5, 20, (16, 2))]
outs = [_beta_sf(x, a, b) for a, b in shapes]

import scipy.special
digest = hashlib.sha256()
for (a, b), out in zip(shapes, outs):
    assert np.array_equal(out, scipy.special.betaincc(a, b, x)), (a, b)
    digest.update(out.tobytes())
print(digest.hexdigest())
"""


class TestBetainccLoader:
    """``_betaincc`` loads scipy's ufunc without ``scipy.special``."""

    def test_loaded_ufunc_is_the_public_one(self):
        _python(
            """
            import sys
            from repro.errors.probability import _betaincc
            loaded = _betaincc()
            assert "scipy.special" not in sys.modules
            import scipy.special
            assert scipy.special.betaincc is loaded
            """,
            _GRID_DIGEST,
        )

    def test_no_stub_is_left_behind(self):
        _python(
            """
            import sys
            import scipy
            from repro.errors.probability import _betaincc
            _betaincc()
            assert "scipy.special" not in sys.modules
            assert "special" not in vars(scipy)
            assert "scipy.special._ufuncs" in sys.modules
            import scipy.special
            assert scipy.special.__file__.endswith("__init__.py")
            assert scipy.special.gamma(5.0) == 24.0
            import scipy.stats
            assert 0.0 < scipy.stats.beta.sf(0.3, 2.0, 3.0) < 1.0
            """
        )

    @pytest.mark.parametrize(
        "patch",
        (
            "importlib.import_module = _refuse_ufuncs",
            "importlib.util.find_spec = lambda name, package=None: None",
        ),
        ids=("import_fails", "no_spec"),
    )
    def test_fallback_is_bit_identical(self, patch):
        loaded = _python(
            """
            import sys
            from repro.errors.probability import _betaincc
            _betaincc()
            assert "scipy.special" not in sys.modules
            """,
            _GRID_DIGEST,
        )
        fallback = _python(
            f"""
            import importlib, importlib.util, sys

            _import_module = importlib.import_module

            def _refuse_ufuncs(name, package=None):
                if name == "scipy.special._ufuncs":
                    raise ImportError("private load refused")
                return _import_module(name, package)

            {patch}
            from repro.errors.probability import _betaincc
            betaincc = _betaincc()
            assert sys.modules["scipy.special"].__file__.endswith("__init__.py")
            assert sys.modules["scipy.special"].betaincc is betaincc
            """,
            _GRID_DIGEST,
        )
        assert fallback == loaded

    def test_concurrent_first_calls_get_one_ufunc(self):
        """More threads than cores make the first call, with a short
        switch interval and start times staggered across the ~ms the
        stub is in place: each gets the one ufunc, none sees the stub,
        and the stub is gone afterwards."""
        _python(
            """
            import sys, threading, time
            import numpy, scipy  # so the stub goes in at once
            from repro.errors.probability import _betaincc

            n = 8
            barrier = threading.Barrier(n)
            got = []

            def first_call(delay):
                barrier.wait()
                time.sleep(delay)
                got.append(_betaincc())

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=first_call, args=(i * 1e-3,))
                    for i in range(n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == n and all(f is got[0] for f in got)
            assert "scipy.special" not in sys.modules
            import scipy.special
            assert scipy.special.betaincc is got[0]
            """
        )
