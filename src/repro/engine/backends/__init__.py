"""Executor backends for the experiment engine.

Two backends ship, both bit-identical to each other (enforced by the
parallel-equivalence property test):

* ``serial`` -- in-order, in-process; the reference path and the
  default.  Sees schemes and workloads registered at runtime.
* ``remote`` -- ships content-keyed shards to ``python -m repro
  worker`` processes, on this host or others (``--workers
  host1:port,host2:port``), with per-shard failover.  The one
  parallel path.

:func:`make_backend` builds one by name from a fixed table.  Each
name takes a fixed set of options; an option the chosen backend does
not take is an error that names the remedy, not a silent no-op.
"""

from __future__ import annotations

from typing import Tuple

from repro._lazy import lazy_exports

from .base import EmitFn, ExecutorBackend, null_emit
from .serial import SerialBackend

# the remote backend loads only when a factory builds one (it pulls
# in socket, hmac and threading)
__getattr__, __dir__ = lazy_exports(
    __name__,
    {".remote": ("RemoteBackend", "parse_worker_addresses")},
)

__all__ = [
    "EmitFn",
    "ExecutorBackend",
    "RemoteBackend",
    "SerialBackend",
    "backend_names",
    "make_backend",
    "null_emit",
    "parse_worker_addresses",
]


def _make_remote(remote_workers=None, worker_token=None) -> ExecutorBackend:
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


#: Backend name -> (factory, the options it takes).
_BACKENDS = {
    "serial": (SerialBackend, frozenset()),
    "remote": (_make_remote, frozenset({"remote_workers", "worker_token"})),
}

#: The remedy named when an option reaches a backend that cannot use it.
_OPTION_REMEDY = {
    "remote_workers": "; worker addresses (--workers) select the remote "
    "backend",
    "worker_token": "; --token is the remote workers' auth secret -- "
    "pass --workers HOST:PORT[,...] with it",
}


def backend_names() -> Tuple[str, ...]:
    """Names :func:`make_backend` accepts."""
    return tuple(_BACKENDS)


def make_backend(name: str, **options) -> ExecutorBackend:
    """Build a backend by name.

    ``options`` (``remote_workers`` and ``worker_token`` for the
    remote backend) that are ``None`` are dropped; any other option
    the chosen backend does not take raises ``ValueError``.
    """
    try:
        factory, accepted = _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; backends: {sorted(_BACKENDS)}"
        ) from None
    options = {k: v for k, v in options.items() if v is not None}
    unknown = sorted(set(options) - accepted)
    if unknown:
        remedy = "".join(_OPTION_REMEDY.get(option, "") for option in unknown)
        raise ValueError(
            f"backend {name!r} does not accept option(s) {unknown}{remedy}"
        )
    return factory(**options)
