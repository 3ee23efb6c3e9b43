"""Pluggable executor backends for the experiment engine.

Three strategies ship in-tree, all bit-identical to the serial
reference (enforced by the parallel-equivalence property test):

* ``serial``  -- in-order, in-process; the reference path.  Sees
  schemes and workloads registered at runtime.
* ``process`` -- process pool; the historical ``--jobs N`` behaviour.
  Workers run the registry bootstrap hook
  (:mod:`repro.engine.bootstrap`) at start-up.
* ``remote``  -- the multi-host distributor: ships content-keyed
  shards to ``python -m repro worker`` processes on other machines
  (``--workers host1:port,host2:port``), with per-shard failover.

:func:`make_backend` builds one by name; :func:`register_backend`
makes the set open for out-of-tree strategies.  Factories take
``(workers, **options)``: a factory that needs more (``remote``'s
worker addresses and token) declares keyword-only parameters and
:func:`make_backend` forwards matching options.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro._lazy import lazy_exports
from repro.engine._registry import (
    register_factory,
    resolve_factory,
    validate_factory_options,
)

from .base import EmitFn, ExecutorBackend, null_emit
from .serial import SerialBackend

# the pool and remote backends load only when a factory builds one
# (they pull in concurrent.futures, multiprocessing, socket and hmac)
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".process": ("ProcessBackend",),
        ".remote": ("RemoteBackend", "parse_worker_addresses"),
    },
)

__all__ = [
    "EmitFn",
    "ExecutorBackend",
    "ProcessBackend",
    "RemoteBackend",
    "SerialBackend",
    "backend_names",
    "make_backend",
    "null_emit",
    "parse_worker_addresses",
    "register_backend",
]

#: Backend factory signature: ``(workers) -> backend``, plus optional
#: keyword-only parameters for named options (see :func:`make_backend`).
BackendFactory = Callable[..., ExecutorBackend]


def _make_serial(workers: int) -> ExecutorBackend:
    return SerialBackend()


def _make_process(workers: int) -> ExecutorBackend:
    from .process import ProcessBackend

    return ProcessBackend(workers=workers)


def _make_remote(
    workers: int,
    *,
    remote_workers=None,
    worker_token=None,
) -> ExecutorBackend:
    if not remote_workers:
        raise ValueError(
            "the remote backend needs worker addresses: pass --workers "
            "HOST:PORT[,HOST:PORT...] (start workers with "
            "'python -m repro worker --serve HOST:PORT')"
        )
    import os

    from .remote import RemoteBackend

    if worker_token is None:
        worker_token = os.environ.get("REPRO_WORKER_TOKEN") or None
    return RemoteBackend(remote_workers, token=worker_token)


_FACTORIES: Dict[str, BackendFactory] = {
    "serial": _make_serial,
    "process": _make_process,
    "remote": _make_remote,
}


#: Guidance appended when a CLI-originated option misses its backend.
_OPTION_HINTS = {
    "remote_workers": "; --workers selects remote worker addresses -- "
    "use --backend remote",
    "worker_token": "; --token is the remote workers' shared auth "
    "secret -- use --backend remote",
}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Add an out-of-tree backend factory to :func:`make_backend`."""
    register_factory(_FACTORIES, "backend", name, factory, replace)


def backend_names() -> Tuple[str, ...]:
    """Names :func:`make_backend` accepts."""
    return tuple(_FACTORIES)


def make_backend(name: str, workers: int = 1, **options) -> ExecutorBackend:
    """Build a backend by registry name.

    ``workers`` sizes the process pool.  Named ``options``
    (``remote_workers`` and ``worker_token`` for the remote backend) are
    forwarded to factories that declare a matching keyword-only
    parameter; passing an option the chosen backend does not accept
    is an error, not a silent no-op.
    """
    factory = resolve_factory(
        _FACTORIES,
        "backend",
        name,
        "repro.engine.backends.register_backend(...)",
    )
    options = validate_factory_options(
        "backend", name, factory, options, hints=_OPTION_HINTS
    )
    return factory(max(1, int(workers)), **options)
