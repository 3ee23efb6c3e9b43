"""Scheme registry: seed entries, dispatch, import-path solvers.

The registration discipline both registries share is checked on both
default registries in ``tests/test_registries.py``; the scheme-specific
cases below run on a fresh registry shaped like the default.
"""

import pytest

from repro._registry import Registry
from repro.core.schemes import SCHEME_REGISTRY, Scheme, register_scheme


def _fresh_registry():
    return Registry(
        Scheme,
        noun="scheme",
        remedy="Register new schemes with repro.core.schemes.register_scheme(...)",
    )


class TestSeedEntries:
    def test_paper_schemes_registered(self):
        assert set(SCHEME_REGISTRY.names()) == {
            "synts",
            "no_ts",
            "nominal",
            "per_core_ts",
            "online",
        }

    def test_online_is_an_ordinary_entry(self):
        online = SCHEME_REGISTRY.get("online")
        assert online.needs_rng
        assert online.uses_theta

    def test_nominal_ignores_theta(self):
        assert not SCHEME_REGISTRY.get("nominal").uses_theta

    def test_offline_entries_do_not_need_rng(self):
        for name in ("synts", "no_ts", "nominal", "per_core_ts"):
            assert not SCHEME_REGISTRY.get(name).needs_rng


class TestRegistrationDiscipline:
    def test_duplicate_registration_rejected(self):
        reg = _fresh_registry()
        reg.register(Scheme(name="x", solver=lambda p, t: None))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(Scheme(name="x", solver=lambda p, t: None))

    def test_replace_is_explicit(self):
        reg = _fresh_registry()
        first = reg.register(Scheme(name="x", solver=lambda p, t: None))
        second = Scheme(name="x", solver=lambda p, t: 1)
        reg.register(second, replace=True)
        assert reg.get("x") is second is not first

    def test_unknown_scheme_error_is_actionable(self):
        with pytest.raises(KeyError) as err:
            SCHEME_REGISTRY.get("bogus")
        message = str(err.value)
        assert "bogus" in message
        assert "synts" in message  # names what IS registered
        assert "register_scheme" in message  # names the fix

    def test_unregister_unknown_is_actionable(self):
        with pytest.raises(KeyError, match="registered schemes"):
            _fresh_registry().unregister("nope")


class TestDispatch:
    def test_registered_scheme_runs_through_cells(self):
        """A runtime registration is immediately a valid cell scheme."""
        from repro.core.baselines import solve_nominal
        from repro.engine import CellBatch, CellSpec, compute_batch

        register_scheme(
            Scheme(name="nominal_alias", solver=solve_nominal, uses_theta=False)
        )
        try:
            alias = compute_batch(
                CellBatch((CellSpec("radix", "decode", "nominal_alias"),))
            )[0]
            nominal = compute_batch(
                CellBatch((CellSpec("radix", "decode", "nominal"),))
            )[0]
            assert alias.energy == nominal.energy
            assert alias.time == nominal.time
        finally:
            SCHEME_REGISTRY.unregister("nominal_alias")

    def test_unregistered_scheme_rejected_by_cellspec(self):
        from repro.engine import CellSpec

        with pytest.raises(ValueError, match="register_scheme"):
            CellSpec("radix", "decode", "definitely_not_a_scheme")

    def test_cellspec_message_is_the_registry_message(self):
        from repro.engine import CellSpec

        with pytest.raises(KeyError) as lookup:
            SCHEME_REGISTRY.get("nope")
        with pytest.raises(ValueError) as spec:
            CellSpec("radix", "decode", "nope")
        assert spec.value.args[0] == lookup.value.args[0]

    def test_evaluate_matches_legacy_offline_path(self):
        from repro.core.poly import solve_synts_poly
        from repro.core.runner import interval_problems
        from repro.engine import CellSpec
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("fmm"), "decode")[0]
        theta = problem.equal_weight_theta()
        spec = CellSpec("fmm", "decode", "synts")
        energy, time = SCHEME_REGISTRY.get("synts").evaluate(problem, theta, spec)
        legacy = solve_synts_poly(problem, theta).evaluation
        assert energy == float(legacy.total_energy)
        assert time == float(legacy.texec)

    def test_online_evaluate_is_deterministic_per_spec(self):
        from repro.core.runner import interval_problems
        from repro.engine import CellSpec
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("radix"), "decode")[0]
        theta = problem.equal_weight_theta()
        spec = CellSpec("radix", "decode", "online", seed=9, n_samp=5_000)
        online = SCHEME_REGISTRY.get("online")
        assert online.evaluate(problem, theta, spec) == online.evaluate(
            problem, theta, spec
        )


class TestImportPathSolvers:
    """A solver named by ``"module:function"`` keys like the callable."""

    def test_path_and_callable_have_the_same_digest(self):
        from repro.core.baselines import solve_no_ts

        by_path = Scheme(name="x", solver="repro.core.baselines:solve_no_ts")
        by_callable = Scheme(name="x", solver=solve_no_ts)
        assert by_path.digest() == by_callable.digest()
        assert by_path.digest_json == by_callable.digest_json

    def test_path_solver_evaluates_like_the_callable(self):
        from repro.core.baselines import solve_no_ts, solve_no_ts_batch
        from repro.core.runner import interval_problems
        from repro.engine import CellSpec
        from repro.workloads import build_benchmark

        problems = interval_problems(build_benchmark("radix"), "decode")
        thetas = [p.equal_weight_theta() for p in problems]
        specs = [
            CellSpec("radix", "decode", "no_ts", interval=k)
            for k in range(len(problems))
        ]
        by_path = Scheme(
            name="x",
            solver="repro.core.baselines:solve_no_ts",
            batch_solver="repro.core.baselines:solve_no_ts_batch",
        )
        by_callable = Scheme(
            name="x", solver=solve_no_ts, batch_solver=solve_no_ts_batch
        )
        assert by_path.evaluate(problems[0], thetas[0], specs[0]) == (
            by_callable.evaluate(problems[0], thetas[0], specs[0])
        )
        assert by_path.evaluate_batch(problems, thetas, specs) == (
            by_callable.evaluate_batch(problems, thetas, specs)
        )

    def test_malformed_path_rejected_at_construction(self):
        with pytest.raises(ValueError, match="package.module:function"):
            Scheme(name="x", solver="repro.core.baselines.solve_no_ts")

    def test_reexport_path_rejected_on_first_call(self):
        # repro.core re-exports solve_no_ts; its digest would name the
        # package, not the defining module, and drift from the callable's
        scheme = Scheme(name="x", solver="repro.core:solve_no_ts")
        with pytest.raises(ValueError, match="where it is defined"):
            scheme.evaluate(None, 1.0, None)

    def test_registration_does_not_import_the_solver(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "from repro.core.schemes import Scheme, register_scheme\n"
            "register_scheme(Scheme('x', 'repro.core.poly:solve_synts_poly'))\n"
            "assert 'repro.core.poly' not in sys.modules\n"
            "assert 'numpy' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
