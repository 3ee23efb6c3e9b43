"""The long-lived remote worker: ``python -m repro worker --serve``.

A worker binds a TCP port, runs the registry bootstrap
(:mod:`repro.engine.bootstrap`: ``REPRO_BOOTSTRAP`` specs, then its
own ``--bootstrap`` flags), then serves shard requests from
:class:`~repro.engine.backends.remote.RemoteBackend` clients until
killed.  Evaluation goes through the very same pure
``compute_batch`` path every local backend uses (via
:class:`~repro.engine.backends.serial.SerialBackend`), so remote
results are bit-identical to serial by construction.

A worker keeps no result store: it computes every cell it receives,
and reuse stays with the client.  A worker started with ``--token``
(or ``REPRO_WORKER_TOKEN``) requires every connection to prove
knowledge of the shared secret via an HMAC over a per-connection
nonce before any payload op is served.

The worker announces readiness by printing one line to stdout::

    repro worker: listening on HOST:PORT

which is how :func:`start_loopback_workers` (tests, benchmarks, the
CI smoke) discovers ephemeral ports (``--serve 127.0.0.1:0``).
Request logs go to stderr; engine events produced while computing a
shard are returned to the requesting client in the shard's result
frame, not printed.

Ops served (protocol 4; see :mod:`repro.engine.backends.remote` for
framing): ``hello`` (version/schema handshake, registry snapshot and
auth advertisement), ``auth`` (HMAC proof), ``run_batches`` (evaluate
a shard; one ``result`` frame carrying its ``events``), ``ping`` and
``shutdown``.  Any other op gets an ``unknown op`` error frame.
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
    auth_mac,
    recv_frame,
    send_frame,
    set_nodelay,
)
from .bootstrap import run_bootstrap

__all__ = ["serve", "start_loopback_workers", "stop_workers"]


def _log(message: str) -> None:
    print(f"repro worker: {message}", file=sys.stderr, flush=True)


def _registry_names() -> Tuple[List[str], List[str]]:
    """This process's registered (schemes, benchmarks), by name."""
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.workloads.registry import WORKLOAD_REGISTRY

    return list(SCHEME_REGISTRY.names()), list(WORKLOAD_REGISTRY.names())


def _hello_response() -> Dict[str, Any]:
    from repro import __version__

    schemes, benchmarks = _registry_names()
    return {
        "ok": True,
        "op": "hello",
        "protocol": PROTOCOL_VERSION,
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "schemes": schemes,
        "benchmarks": benchmarks,
    }


def _handle_run_batches(
    request: Dict[str, Any], sock: socket.socket, peer: str
) -> None:
    """Evaluate one shard and answer with one result frame.

    Each batch arrives as a list of spec payloads and is computed
    through the same pure ``compute_batch`` path as a local serial
    run; its cell payloads go back in the same order.  A shard that
    does not decode is a ``protocol`` error, not a registry miss: the
    client checks every scheme and workload name against this
    worker's hello before it sends.
    """
    from .backends.serial import SerialBackend
    from .cells import CellBatch, CellSpec

    try:
        batches = [
            CellBatch(specs=tuple(CellSpec.from_payload(p) for p in batch))
            for batch in request.get("batches", ())
        ]
    except (KeyError, ValueError, TypeError) as exc:
        send_frame(
            sock,
            {
                "ok": False,
                "op": "error",
                "kind": "protocol",
                "error": (
                    f"worker cannot decode the shard: {exc} -- protocol "
                    f"v{PROTOCOL_VERSION} sends 'batches' as a list of "
                    "batches, each a non-empty list of spec payloads"
                ),
            },
        )
        return
    _log(f"shard {request.get('shard')} from {peer}: {len(batches)} batches")

    events: List[Dict[str, Any]] = []

    def emit(kind: str, **data: Any) -> None:
        events.append({"kind": kind, "data": data})

    try:
        results = SerialBackend().run_batches(batches, emit)
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
    try:
        send_frame(
            sock,
            {
                "ok": True,
                "op": "result",
                "shard": request.get("shard"),
                "batches": [
                    [cell.to_payload() for cell in cells] for cells in results
                ],
                "events": events,
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

    ``token`` (the shared auth secret, or ``None``) is attached by
    :func:`serve` and read by every connection handler.
    """

    allow_reuse_address = True
    daemon_threads = True
    token: Optional[str] = None


class _WorkerHandler(socketserver.BaseRequestHandler):
    """Frame loop for one client connection."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        peer = f"{self.client_address[0]}:{self.client_address[1]}"
        _log(f"client connected: {peer}")
        sock = self.request
        set_nodelay(sock)
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
                    response = _hello_response()
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
                elif op == "run_batches":
                    _handle_run_batches(request, sock, peer)
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
    token: Optional[str] = None,
) -> None:
    """Run a worker until shut down (the ``repro worker`` subcommand).

    Binds ``host:port`` (port 0 picks a free port), runs the bootstrap
    hooks, prints the readiness line (with the actual port) to
    ``ready_stream``/stdout, and serves requests forever.

    ``token`` (falling back to ``REPRO_WORKER_TOKEN``) requires
    clients to authenticate with the shared secret before any payload
    op.
    """
    ran = run_bootstrap(extra=bootstrap)
    if ran:
        _log(f"bootstrap: ran {', '.join(ran)}")
    if token is None:
        token = os.environ.get("REPRO_WORKER_TOKEN") or None
    if token is not None:
        _log("auth: shared-secret token required")
    server = _WorkerServer((host, port), _WorkerHandler)
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
    every worker's command line (e.g. ``["--token", secret]`` for
    auth).  Returns
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
