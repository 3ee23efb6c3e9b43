"""Worker registry bootstrap: import-time registrations, everywhere.

Runtime scheme/workload registrations live in the registering process.
That is fine for the serial backend, but remote workers import the
code afresh and resolve cells against *their own* copy of the
registries.  The distribution-safe pattern has always been
"register at import time of a module the workers also import" -- this
module is the hook that makes that pattern executable:

* ``REPRO_BOOTSTRAP=module:function`` (comma-separated specs allowed;
  a bare ``module`` means "importing it is the registration") names
  user code every worker runs before serving cells;
* :func:`run_bootstrap` executes those specs (plus a worker's
  ``--bootstrap`` flags), exactly once per spec per process, and is
  called by ``python -m repro worker`` at start-up and by the CLI
  itself (so the submitting side sees the same registry picture its
  workers do).

Bootstrap functions should register with ``replace=True`` so a hook
that runs where the registration already exists (e.g. a test process
that registered by hand) stays idempotent.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, List, Optional, Sequence

__all__ = [
    "BOOTSTRAP_ENV",
    "BOOTSTRAP_REMEDY",
    "bootstrap_specs",
    "parse_bootstrap",
    "run_bootstrap",
]

#: Environment variable naming bootstrap hooks (``module:function``,
#: comma-separated).  Read by the CLI and by ``python -m repro worker``
#: at start-up.
BOOTSTRAP_ENV = "REPRO_BOOTSTRAP"

#: The remedy the remote backend's registry-miss error points at.
BOOTSTRAP_REMEDY = (
    "set REPRO_BOOTSTRAP=module:function so every worker runs the "
    "same registrations as the client"
)

#: Specs already executed in this process (idempotency guard).
_already_run: set = set()


def parse_bootstrap(spec: str) -> Callable[[], object]:
    """Resolve a ``module:function`` spec to its callable.

    A bare ``module`` (no colon) resolves to a no-op after importing
    the module -- importing *is* the registration in the import-time
    pattern.  Dotted attribute paths after the colon are followed
    (``pkg.mod:ns.register``).  Failures raise ``RuntimeError`` with
    the spec named, so a worker that cannot bootstrap says why.
    """
    module_name, _, attr_path = spec.partition(":")
    module_name = module_name.strip()
    attr_path = attr_path.strip()
    if not module_name:
        raise RuntimeError(
            f"invalid bootstrap spec {spec!r}: expected 'module:function' "
            "or a bare module name"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise RuntimeError(
            f"cannot import bootstrap module {module_name!r} "
            f"(from spec {spec!r}): {exc}"
        ) from exc
    if not attr_path:
        return lambda: None
    target: object = module
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError as exc:
            raise RuntimeError(
                f"bootstrap spec {spec!r}: module {module_name!r} has "
                f"no attribute {attr_path!r}"
            ) from exc
    if not callable(target):
        raise RuntimeError(
            f"bootstrap spec {spec!r} resolves to a non-callable "
            f"{type(target).__name__}"
        )
    return target  # type: ignore[return-value]


def bootstrap_specs(extra: Optional[Sequence[str]] = None) -> List[str]:
    """The bootstrap specs this process would run, in order.

    ``REPRO_BOOTSTRAP`` specs first (environment order), then any
    ``extra`` specs (e.g. a worker's ``--bootstrap`` flags).  Blank
    segments are dropped; duplicates keep their first position.
    """
    raw: List[str] = []
    env = os.environ.get(BOOTSTRAP_ENV, "")
    raw.extend(part.strip() for part in env.split(",") if part.strip())
    for spec in extra or ():
        spec = spec.strip()
        if spec:
            raw.append(spec)
    seen = set()
    ordered = []
    for spec in raw:
        if spec not in seen:
            seen.add(spec)
            ordered.append(spec)
    return ordered


def run_bootstrap(extra: Optional[Sequence[str]] = None) -> List[str]:
    """Run every configured bootstrap hook once per process.

    Executes, in order: ``REPRO_BOOTSTRAP`` specs, then ``extra``
    specs (see :func:`bootstrap_specs`).  Each hook runs at most once
    per process (a second :func:`run_bootstrap` call is a no-op for
    it).  Returns
    the specs of hooks that actually ran.  A failing hook raises
    ``RuntimeError`` naming the spec -- a worker that cannot see the
    registrations it was promised must not serve cells.
    """
    ran: List[str] = []
    for spec in bootstrap_specs(extra):
        if spec in _already_run:
            continue
        hook = parse_bootstrap(spec)
        try:
            hook()
        except RuntimeError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"bootstrap hook {spec!r} failed: {exc!r}"
            ) from exc
        _already_run.add(spec)
        ran.append(spec)
    return ran
