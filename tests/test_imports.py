"""Import budget: a run loads only the modules it uses.

Every check that depends on what is (not) imported runs in a fresh
interpreter, because the test session itself has imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``python -m repro`` imports before it runs anything.
CLI_IMPORTS = (
    "import repro.__main__, repro.experiments, repro.experiments.ablations, "
    "repro.engine.bootstrap\n"
    "from repro.engine import ExperimentEngine\n"
)

#: Modules the CLI import above must not load; a trailing ``*``
#: also forbids every submodule.
CLI_FORBIDDEN = (
    "importlib.metadata",
    "email*",
    "socket",
    "hmac",
    "concurrent.futures",
    "multiprocessing*",
    "numpy*",
    "scipy*",
    "repro.engine.backends.remote",
    "repro.gpgpu*",
    "repro.overhead*",
    "repro.arch*",
    "repro.circuit.synth",
    "repro.circuit.sta",
    "repro.circuit.netlist",
    "repro.circuit.gates",
    "repro.circuit.logicsim",
    "repro.circuit.sensitize",
    "repro.circuit.spice",
    "repro.circuit.ring_oscillator",
)

#: Packages whose ``__all__`` names resolve on first attribute access.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.arch",
    "repro.circuit",
    "repro.core",
    "repro.engine",
    "repro.engine.backends",
    "repro.errors",
    "repro.gpgpu",
    "repro.overhead",
    "repro.workloads",
)

_DUMP_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


#: OpenBLAS's thread-count variables, in the order it reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Prints the BLAS thread-count variables as JSON.
_DUMP_BLAS_ENV = (
    "\nimport json, os\n"
    "print(json.dumps({v: os.environ.get(v) for v in %r}))\n" % (BLAS_THREAD_VARS,)
)


def _python(code: str, blas_env=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` on the path.

    ``blas_env``, when given, replaces every BLAS thread-count variable
    of the inherited environment (the test session may have set one).
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    env.pop("REPRO_BOOTSTRAP", None)
    if blas_env is not None:
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
        env.update(blas_env)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str):
    """(stdout before the module dump, modules loaded) after ``code``."""
    out = _python(code + _DUMP_MODULES).stdout
    text, _, dump = out.rstrip("\n").rpartition("\n")
    return text, set(json.loads(dump))


def _matches(module: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        base = pattern[:-1]
        return module == base or module.startswith(base + ".")
    return module == pattern


def _forbidden(modules, patterns):
    return sorted(m for m in modules if any(_matches(m, p) for p in patterns))


def test_cli_import_loads_only_the_default_path():
    _, modules = _loaded(CLI_IMPORTS)
    assert _forbidden(modules, CLI_FORBIDDEN) == []


def test_listing_loads_no_numpy():
    _, modules = _loaded(
        "from repro.__main__ import main\nassert main(['list']) == 0\n"
    )
    assert _forbidden(modules, CLI_FORBIDDEN) == []


def test_cold_table_5_1_loads_no_numpy():
    """The ring sweep needs only floats: a cold Table 5.1 regeneration
    (no cache) computes everything without numpy or scipy."""
    out, modules = _loaded(
        "from repro.__main__ import main\nassert main(['run', 'table_5_1']) == 0\n"
    )
    assert "max relative error : 7.8%" in out
    assert "repro.circuit.spice" in modules
    assert _forbidden(modules, ("numpy*", "scipy*")) == []


def test_cold_figure_loads_only_the_beta_ufunc():
    """A cold figure evaluates Beta tails through scipy's compiled
    ``betaincc`` alone: not the ``scipy.special`` package, whose
    ``__init__`` pulls in the array-API shim and ``numpy.f2py``."""
    _, modules = _loaded(
        "from repro.__main__ import main\nassert main(['run', 'fig_1_2']) == 0\n"
    )
    assert {"numpy", "scipy.special._ufuncs"} <= modules
    assert _forbidden(
        modules,
        (
            "scipy.special",
            "scipy._lib._array_api*",
            "scipy._lib.array_api_compat*",
            "numpy.f2py*",
        ),
    ) == []


def _blas_env_after(code: str, blas_env):
    return json.loads(_python(code + _DUMP_BLAS_ENV, blas_env).stdout)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task"
)
def test_cli_starts_no_blas_threads():
    """numpy's and scipy's OpenBLAS each start a thread at import
    unless the CLI module capped them first."""
    out = _python(
        "import os, repro.__main__, numpy, scipy.special\n"
        "print(len(os.listdir('/proc/self/task')))\n"
        + _DUMP_BLAS_ENV,
        blas_env={},
    ).stdout
    threads, env = out.splitlines()
    assert int(threads) == 1
    assert json.loads(env)["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_cli_keeps_a_preset_blas_thread_count(var):
    expected = {v: None for v in BLAS_THREAD_VARS}
    expected[var] = "2"
    assert _blas_env_after("import repro.__main__", {var: "2"}) == expected


def test_library_import_leaves_blas_threads_alone():
    assert _blas_env_after("import repro", {}) == {
        v: None for v in BLAS_THREAD_VARS
    }


def test_warm_rerun_skips_driver_dependencies(tmp_path):
    # fig_5_10 and sec_6_3 submit no cells; the replay-penalty ablation
    # does, so the cold run proves the cells check can fail
    run_three = textwrap.dedent(
        f"""
        from repro.__main__ import main
        for command in (["run", "fig_5_10"], ["run", "sec_6_3"],
                        ["ablation", "replay_penalty"]):
            assert main([*command, "--cache-dir", {str(tmp_path)!r}]) == 0
        """
    )
    cold, cold_modules = _loaded(run_three)
    # the cold run really computed: it needed every dependency
    assert {"repro.gpgpu", "repro.overhead", "repro.engine.cells"} <= cold_modules
    warm, warm_modules = _loaded(run_three)
    assert warm == cold
    # memo hits only: no driver dependency, no cell keyed or computed,
    # no installed-package metadata read
    assert _forbidden(
        warm_modules,
        (
            "repro.gpgpu*",
            "repro.overhead*",
            "repro.engine.cells",
            "importlib.metadata",
        ),
    ) == []


def test_warm_rerun_of_everything_loads_no_numpy(tmp_path):
    """A warm hit only keys, reads JSON and renders text: no numpy or
    scipy, no cells and none of the CLI-forbidden standard modules."""
    run_all = textwrap.dedent(
        f"""
        from repro.__main__ import main
        for command in (["run", "all"], ["ablation", "all"]):
            assert main([*command, "--cache-dir", {str(tmp_path)!r}]) == 0
        """
    )
    cold, cold_modules = _loaded(run_all)
    assert {"numpy", "scipy", "repro.engine.cells"} <= cold_modules
    warm, warm_modules = _loaded(run_all)
    assert warm == cold
    assert _forbidden(warm_modules, (*CLI_FORBIDDEN, "repro.engine.cells")) == []


def _submodules(package):
    """Every module below ``package``, imported."""
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_definitions(name):
    package = importlib.import_module(name)
    submodules = list(_submodules(package))
    listed = set(dir(package))
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, export
        if export == "__version__" or getattr(value, "__module__", "") == name:
            continue  # defined by the package itself
        assert any(vars(m).get(export) is value for m in submodules), export


def test_unknown_attribute_still_raises():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(repro.core, "nope")


@pytest.mark.parametrize("module", ["repro.engine.cells", "repro.workloads.registry"])
def test_module_imports_alone(module):
    # cells imports the workload registry, whose SPLASH-2 seeding runs
    # while cells is still initialising
    _python(f"import {module}")
