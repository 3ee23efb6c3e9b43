"""The long-lived remote worker: ``python -m repro worker --serve``.

A worker binds a TCP port, runs the registry bootstrap
(:mod:`repro.engine.bootstrap`: ``REPRO_BOOTSTRAP`` specs, its own
``--bootstrap`` flags, installed ``repro.registrations`` entry
points), then serves shard requests from
:class:`~repro.engine.backends.remote.RemoteBackend` clients until
killed.  Evaluation goes through the very same pure
``compute_batch`` path every local backend uses (via
:class:`~repro.engine.backends.serial.SerialBackend`), so remote
results are bit-identical to serial by construction.

A worker started with ``--cache-dir`` keeps its **own result store**
(a tiered memory+disk stack): shard cells it has computed before --
for any client -- are served from the store instead of recomputed,
and clients dispatch to it with the two-phase *delta protocol*
(``query_keys`` first, then only the missing cells' specs).  A worker
started with ``--token`` (or ``REPRO_WORKER_TOKEN``) requires every
connection to prove knowledge of the shared secret via an HMAC over a
per-connection nonce before any payload op is served.

The worker announces readiness by printing one line to stdout::

    repro worker: listening on HOST:PORT

which is how :func:`start_loopback_workers` (tests, benchmarks, the
CI smoke) discovers ephemeral ports (``--serve 127.0.0.1:0``).
Request logs go to stderr; engine events produced while computing a
shard are streamed back to the requesting client, not printed.

Ops served (see :mod:`repro.engine.backends.remote` for framing):
``hello`` (version/schema handshake + registry snapshot + caching /
auth advertisement), ``auth`` (HMAC proof), ``registries`` (live
registry names; diagnostic -- clients validate against the hello
reply), ``query_keys``
(worker-store hits for a key list), ``run_batches`` (evaluate a
shard; streams ``event`` frames, then a ``result`` frame), ``ping``
and ``shutdown``.
"""

from __future__ import annotations

import hmac
import os
import secrets
import select
import socket
import socketserver
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.serialization import SCHEMA_VERSION

from .backends.remote import (
    MAX_FRAME_BYTES,
    PREAUTH_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    RemoteProtocolError,
    _decode_delta_batch,
    auth_mac,
    recv_frame,
    send_frame,
    set_nodelay,
)
from .bootstrap import run_bootstrap
from .store import ResultStore, make_store

__all__ = ["serve", "start_loopback_workers", "stop_workers"]


def _log(message: str) -> None:
    print(f"repro worker: {message}", file=sys.stderr, flush=True)


def _registry_names() -> Tuple[List[str], List[str]]:
    """This process's registered (schemes, benchmarks), by name."""
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.workloads.registry import WORKLOAD_REGISTRY

    return list(SCHEME_REGISTRY.names()), list(WORKLOAD_REGISTRY.names())


def _hello_response(caching: bool) -> Dict[str, Any]:
    from repro import __version__

    schemes, benchmarks = _registry_names()
    return {
        "ok": True,
        "op": "hello",
        "protocol": PROTOCOL_VERSION,
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "caching": bool(caching),
        "schemes": schemes,
        "benchmarks": benchmarks,
    }


def _handle_query_keys(
    request: Dict[str, Any],
    sock: socket.socket,
    store: Optional[ResultStore],
) -> None:
    """Answer phase one of the delta protocol: which keys we hold."""
    keys = request.get("keys", ())
    hits: List[str] = []
    if store is not None:
        hits = [str(key) for key in keys if str(key) in store]
    send_frame(sock, {"ok": True, "op": "key_hits", "hits": hits})


def _handle_run_batches(
    request: Dict[str, Any],
    sock: socket.socket,
    store: Optional[ResultStore],
) -> None:
    """Evaluate one shard, streaming events then the result frame.

    Cells present in the worker's store are served from it (reported
    under ``"cached"`` in the result frame) and only the rest are
    computed -- through the same pure ``compute_batch`` path, so the
    assembled shard is bit-identical to a storeless evaluation.
    Computed payloads are written back into the store for the next
    client.  A key the client omitted the spec for (a delta-protocol
    promise) that the store no longer holds yields a ``cache_miss``
    error frame; the client re-sends the shard with full specs.
    """
    from .backends.serial import SerialBackend
    from .cells import CellBatch

    try:
        decoded = [
            _decode_delta_batch(b) for b in request.get("batches", ())
        ]
    except (KeyError, ValueError, TypeError) as exc:
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "registry",
                "error": (
                    f"worker cannot decode the shard: {exc} -- likely a "
                    "scheme/workload this worker has not registered; "
                    "set REPRO_BOOTSTRAP or --bootstrap so workers run "
                    "the same registrations as the client"
                ),
            },
        )
        return

    # resolve each cell against the store; collect what must compute
    payloads: List[List[Optional[Dict[str, Any]]]] = []
    cached_keys: List[str] = []
    missing_promised: List[str] = []
    compute_batches: List[CellBatch] = []
    compute_origins: List[Tuple[int, List[int]]] = []
    for bi, (keys, sparse) in enumerate(decoded):
        group: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        positions: List[int] = []
        specs = []
        spec_keys = []
        for pos, key in enumerate(keys):
            payload = store.get(key) if store is not None else None
            if payload is not None:
                group[pos] = payload
                cached_keys.append(key)
            elif pos in sparse:
                positions.append(pos)
                specs.append(sparse[pos])
                spec_keys.append(key)
            else:
                missing_promised.append(key)
        payloads.append(group)
        if specs:
            compute_batches.append(
                CellBatch(specs=tuple(specs), keys=tuple(spec_keys))
            )
            compute_origins.append((bi, positions))
    if missing_promised:
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "cache_miss",
                "error": (
                    f"{len(missing_promised)} promised cache entries "
                    "vanished from the worker store (concurrent prune/"
                    "clear?); re-send the shard with full specs"
                ),
                "missing": missing_promised[:16],
            },
        )
        return

    def emit(kind: str, **data: Any) -> None:
        send_frame(sock, {"op": "event", "kind": kind, "data": data})

    try:
        results = SerialBackend().run_batches(compute_batches, emit)
    except KeyError as exc:
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "registry",
                "error": (
                    f"worker failed a registry lookup: {exc}. Set "
                    "REPRO_BOOTSTRAP=module:function (or --bootstrap) "
                    "so workers import the same registrations as the "
                    "client."
                ),
            },
        )
        return
    except Exception:
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "compute",
                "error": traceback.format_exc(),
            },
        )
        return
    mismatched = 0
    for (bi, positions), batch, cells in zip(
        compute_origins, compute_batches, results
    ):
        for pos, key, spec, cell in zip(
            positions, batch.keys, batch.specs, cells
        ):
            payload = cell.to_payload()
            if store is not None:
                # the key is client-supplied: verify it really is the
                # spec's content key before persisting, or one
                # misbehaving client could poison the shared store for
                # every other client (the requester still gets its
                # result -- only the store write is refused)
                if spec.key() == key:
                    store.put(key, payload)
                else:
                    mismatched += 1
            payloads[bi][pos] = payload
    if mismatched:
        _log(
            f"refused to store {mismatched} computed cells: the "
            "client-sent keys do not match the specs' content keys"
        )
    try:
        send_frame(
            sock,
            {
                "ok": True,
                "op": "result",
                "shard": request.get("shard"),
                "batches": payloads,
                "cached": cached_keys,
            },
        )
    except FrameTooLargeError as exc:
        # deterministic: report it as a small error frame so the
        # client raises instead of treating this worker as lost
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "compute",
                "error": f"result frame too large: {exc}",
            },
        )


class _WorkerServer(socketserver.ThreadingTCPServer):
    """One thread per client connection; requests serial per client.

    ``store`` (the worker's own result store, or ``None``) and
    ``token`` (the shared auth secret, or ``None``) are attached by
    :func:`serve` and read by every connection handler.
    """

    allow_reuse_address = True
    daemon_threads = True
    store: Optional[ResultStore] = None
    token: Optional[str] = None


class _WorkerHandler(socketserver.BaseRequestHandler):
    """Frame loop for one client connection."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        peer = f"{self.client_address[0]}:{self.client_address[1]}"
        _log(f"client connected: {peer}")
        sock = self.request
        set_nodelay(sock)
        store: Optional[ResultStore] = getattr(self.server, "store", None)
        token: Optional[str] = getattr(self.server, "token", None)
        # with a token configured, every connection must prove it
        # knows the secret (HMAC over this connection's nonce) before
        # any payload op is even decoded
        authed = token is None
        nonce: Optional[str] = None
        try:
            while True:
                try:
                    # an unauthenticated connection may only send the
                    # tiny hello/auth frames: cap the frame size so a
                    # peer without the token cannot make this worker
                    # buffer or parse a shard-sized payload
                    request = recv_frame(
                        sock,
                        max_bytes=MAX_FRAME_BYTES
                        if authed
                        else PREAUTH_MAX_FRAME_BYTES,
                    )
                except RemoteProtocolError as exc:
                    _log(f"protocol error from {peer}: {exc}")
                    return
                if request is None:
                    _log(f"client disconnected: {peer}")
                    return
                op = request.get("op")
                if op == "hello":
                    response = _hello_response(caching=store is not None)
                    if token is not None:
                        nonce = secrets.token_hex(32)
                        response["auth_required"] = True
                        response["nonce"] = nonce
                    send_frame(sock, response)
                elif op == "auth":
                    if token is None or nonce is None:
                        send_frame(
                            sock,
                            {
                                "ok": False,
                                "op": "error",
                                "kind": "auth",
                                "error": "auth before hello (no nonce)"
                                if token is not None
                                else "this worker requires no auth",
                            },
                        )
                        if token is not None:
                            return
                        continue
                    expected = auth_mac(token, nonce)
                    if hmac.compare_digest(
                        expected, str(request.get("mac", ""))
                    ):
                        authed = True
                        send_frame(sock, {"ok": True, "op": "auth"})
                    else:
                        _log(f"auth token mismatch from {peer}")
                        send_frame(
                            sock,
                            {
                                "ok": False,
                                "op": "error",
                                "kind": "auth",
                                "error": (
                                    "auth token mismatch -- this worker "
                                    "was started with a different "
                                    "--token/REPRO_WORKER_TOKEN"
                                ),
                            },
                        )
                        return
                elif not authed:
                    # no payload op is served pre-auth (and pre-auth
                    # frames were capped at PREAUTH_MAX_FRAME_BYTES)
                    _log(f"unauthenticated {op!r} from {peer}; closing")
                    send_frame(
                        sock,
                        {
                            "ok": False,
                            "op": "error",
                            "kind": "auth",
                            "error": (
                                "authentication required: this worker "
                                "was started with --token; clients "
                                "must pass the same secret via --token "
                                "or REPRO_WORKER_TOKEN"
                            ),
                        },
                    )
                    return
                elif op == "registries":
                    schemes, benchmarks = _registry_names()
                    send_frame(
                        sock,
                        {
                            "ok": True,
                            "op": "registries",
                            "schemes": schemes,
                            "benchmarks": benchmarks,
                        },
                    )
                elif op == "query_keys":
                    _handle_query_keys(request, sock, store)
                elif op == "run_batches":
                    n = len(request.get("batches", ()))
                    _log(
                        f"shard {request.get('shard')} from {peer}: "
                        f"{n} batches"
                    )
                    _handle_run_batches(request, sock, store)
                elif op == "ping":
                    send_frame(sock, {"ok": True, "op": "pong"})
                elif op == "shutdown":
                    send_frame(sock, {"ok": True, "op": "bye"})
                    _log(f"shutdown requested by {peer}")
                    self.server.shutdown()
                    return
                else:
                    send_frame(
                        sock,
                        {
                            "ok": False,
                            "op": "error",
                            "error": f"unknown op {op!r}",
                        },
                    )
        except (OSError, BrokenPipeError):
            _log(f"connection to {peer} dropped")


def serve(
    host: str,
    port: int,
    bootstrap: Sequence[str] = (),
    ready_stream: Optional[TextIO] = None,
    cache_dir: Optional[str] = None,
    store: Optional[str] = None,
    token: Optional[str] = None,
) -> None:
    """Run a worker until shut down (the ``repro worker`` subcommand).

    Binds ``host:port`` (port 0 picks a free port), runs the bootstrap
    hooks, prints the readiness line (with the actual port) to
    ``ready_stream``/stdout, and serves requests forever.

    ``cache_dir`` enables the worker's own result store (a ``tiered``
    memory+disk stack by default; ``store`` picks another registered
    store) and with it the delta protocol.  ``token`` (falling back
    to ``REPRO_WORKER_TOKEN``) requires clients to authenticate with
    the shared secret before any payload op.
    """
    ran = run_bootstrap(extra=bootstrap)
    if ran:
        _log(f"bootstrap: ran {', '.join(ran)}")
    worker_store: Optional[ResultStore] = None
    if cache_dir or store:
        worker_store = make_store(store or "tiered", cache_dir=cache_dir)
        _log(f"result store: {worker_store.describe()}")
    if token is None:
        token = os.environ.get("REPRO_WORKER_TOKEN") or None
    if token is not None:
        _log("auth: shared-secret token required")
    server = _WorkerServer((host, port), _WorkerHandler)
    server.store = worker_store
    server.token = token
    bound_host, bound_port = server.server_address[:2]
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(
        f"repro worker: listening on {bound_host}:{bound_port}",
        file=stream,
        flush=True,
    )
    schemes, benchmarks = _registry_names()
    _log(
        f"serving {len(schemes)} schemes, {len(benchmarks)} benchmarks "
        f"(pid {os.getpid()})"
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        _log("stopped")


# ----------------------------------------------------------------------
# loopback helpers (tests, benchmarks, the CI smoke)
# ----------------------------------------------------------------------
def start_loopback_workers(
    n: int = 2,
    extra_env: Optional[Dict[str, str]] = None,
    extra_paths: Sequence[str] = (),
    startup_timeout: float = 60.0,
    extra_args: Sequence[str] = (),
) -> Tuple[List[subprocess.Popen], List[str]]:
    """Spawn ``n`` local workers on ephemeral ports; return their handles.

    Each worker is a ``python -m repro worker --serve 127.0.0.1:0``
    subprocess with ``PYTHONPATH`` set so it imports the same ``repro``
    package as the caller (plus ``extra_paths``, e.g. a test package
    providing a bootstrap module).  ``extra_args`` are appended to
    every worker's command line (e.g. ``["--cache-dir", dir]`` for
    worker-side caching, ``["--token", secret]`` for auth).  Returns
    ``(processes, addresses)`` with addresses in ``host:port`` form,
    parsed from each worker's readiness line.  Call
    :func:`stop_workers` when done.
    """
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    paths = [src_dir, *[str(p) for p in extra_paths]]
    existing = env.get("PYTHONPATH")
    if existing:
        paths.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if extra_env:
        env.update(extra_env)

    processes: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "--serve",
                    "127.0.0.1:0",
                    *extra_args,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            processes.append(proc)
        for proc in processes:
            assert proc.stdout is not None
            readable, _, _ = select.select(
                [proc.stdout], [], [], startup_timeout
            )
            if not readable:
                raise RuntimeError(
                    f"worker {proc.pid} did not report readiness within "
                    f"{startup_timeout}s"
                )
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(
                    f"worker {proc.pid} failed to start "
                    f"(exit {proc.poll()}, said {line!r})"
                )
            addresses.append(line.rsplit("listening on", 1)[1].strip())
    except BaseException:
        stop_workers(processes)
        raise
    return processes, addresses


def stop_workers(processes: Sequence[subprocess.Popen]) -> None:
    """Terminate loopback workers started by :func:`start_loopback_workers`."""
    for proc in processes:
        if proc.poll() is None:
            proc.terminate()
    for proc in processes:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
