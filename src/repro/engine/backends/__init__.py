"""Executor backends for the experiment engine.

Two backends ship, both bit-identical to each other (enforced by the
parallel-equivalence property test):

* ``serial`` -- in-order, in-process; the reference path and the
  default.  Sees schemes and workloads registered at runtime.
* ``remote`` -- ships content-keyed shards to ``python -m repro
  worker`` processes, on this host or others (``--workers
  host1:port,host2:port``), with per-shard failover.  The one
  parallel path.

The engine picks one from its inputs: ``remote`` exactly when worker
addresses are given.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

from .base import EmitFn, ExecutorBackend, null_emit
from .serial import SerialBackend

# the remote backend loads only when the engine is given workers (it
# pulls in socket, hmac and threading)
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {".remote": ("RemoteBackend", "parse_worker_addresses")},
)
__all__ += ["EmitFn", "ExecutorBackend", "SerialBackend", "null_emit"]
