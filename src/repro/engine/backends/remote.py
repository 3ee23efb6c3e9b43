"""Remote executor backend: ship content-keyed shards to other hosts.

:class:`RemoteBackend` partitions pending cell batches into
content-keyed shards (:func:`shard_of_batch`, a partition every host
agrees on), ships whole shards to long-lived
worker processes (``python -m repro worker --serve HOST:PORT``) over a
length-prefixed canonical-JSON protocol, and merges the results back
into submission order -- bit-identical to the serial reference,
because workers evaluate the very same pure ``compute_batch`` path.

Worker-side engine events (per-cell ``cell_computed`` and friends)
are forwarded into the local event stream tagged with the worker's
address, so ``--progress`` and ``--log-json`` cover remote work the
same way they cover local work.  A worker returns a shard's events
inside its result frame, and the client forwards them only then: a
shard that fails over to another worker never double-reports its
cells.

Workers keep no result store: every cell they receive they compute.
Reuse lives on the client, in the engine's session memo and its
result store.

Failure semantics: a worker that cannot be reached, that dies
mid-shard, or that answers with a malformed reply is reported with a
``worker_lost`` event and its shards are re-dispatched to the
surviving workers (results are unaffected -- cells are pure).  Only
when *no* worker remains does the backend raise ``RuntimeError``.
Registry visibility is validated up front: before any shard ships,
the pending cells' scheme/workload names are checked against the
names each live worker listed in its hello reply (a worker registers
only at start-up, and the hello is refreshed on every reconnect), and
a worker missing one fails the run with an actionable error (pointing
at ``REPRO_BOOTSTRAP`` and the worker ``--bootstrap`` flag) *before*
any compute is wasted.

Wire protocol (version 4): each frame is a 4-byte big-endian length
followed by that many bytes of UTF-8 canonical JSON
(:func:`repro.serialization.canonical_json` -- sorted keys, numpy
scalars coerced), written with one ``sendall``; both ends set
``TCP_NODELAY`` (see :func:`set_nodelay`).  Requests are ``{"op":
...}`` objects; responses carry ``"ok"``; every request gets exactly
one response frame, and a ``run_batches`` result lists the shard's
engine events under ``"events"``.  The ops are ``hello``, ``auth``,
``run_batches``, ``ping`` and ``shutdown``.  A batch travels as a
plain list of spec payloads, and its results come back as a list of
cell payloads in the same order.
Workers configured with a shared-secret token (``--token`` /
``REPRO_WORKER_TOKEN``) advertise ``auth_required`` plus a per-
connection nonce in the hello response; the client must answer with
an ``auth`` frame carrying ``HMAC-SHA256(token, nonce)`` before any
other op.  A mismatch closes the connection, and unauthenticated
frames are capped at :data:`PREAUTH_MAX_FRAME_BYTES` -- no shard
payload is ever buffered or dispatched pre-auth.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.cells import CellBatch, CellResult
from repro.serialization import SCHEMA_VERSION, canonical_json

from .base import EmitFn, ExecutorBackend, null_emit

__all__ = [
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "PREAUTH_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RemoteBackend",
    "RemoteProtocolError",
    "auth_mac",
    "parse_worker_addresses",
    "recv_frame",
    "send_frame",
    "set_nodelay",
    "shard_of_batch",
]

#: Bump when the frame layout or message vocabulary changes
#: incompatibly; both ends refuse mismatched peers at handshake.
#: Version 2: the HMAC auth handshake.  Version 3: a shard's events
#: travel in its result frame (``events``).  Version 4: no worker-side
#: stores -- a batch is a plain list of spec payloads, and the
#: store-lookup and registry-listing ops are gone.
PROTOCOL_VERSION = 4

_HEADER = struct.Struct(">I")

#: Refuse frames beyond this size (64 MiB): a corrupted length prefix
#: must fail fast, not attempt a huge allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Frame-size cap a tokened worker applies *before* a connection has
#: authenticated.  hello/auth frames are tiny; an unauthenticated peer
#: must not be able to make the worker buffer or parse a shard-sized
#: payload.
PREAUTH_MAX_FRAME_BYTES = 4096


class RemoteProtocolError(RuntimeError):
    """A peer spoke the protocol wrongly (bad frame, bad handshake)."""


class FrameTooLargeError(RemoteProtocolError):
    """A frame exceeded :data:`MAX_FRAME_BYTES`.

    Deterministic for a given payload, so *not* failover material: a
    shard too large for one worker is too large for every worker.
    """


def set_nodelay(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm on a protocol socket (both ends).

    With Nagle on, a small segment waits for the ACK of the data
    sent before it, and the reading side delays that ACK (~40 ms on
    Linux): a fixed stall whenever a write follows unacknowledged data,
    such as the short tail segment of a large frame.  Frames are
    already written whole, so sending segments immediately changes no
    framing.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Send one length-prefixed canonical-JSON frame."""
    data = canonical_json(payload).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} "
            "limit; split the dispatch into smaller shards"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or ``None`` on a clean EOF at byte 0."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Receive one frame, or ``None`` on a clean peer shutdown.

    ``max_bytes`` lowers the size cap for contexts where only small
    frames are legitimate (a tokened worker's pre-auth phase); an
    oversized announcement raises before any body byte is read.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds the {max_bytes} limit "
            "(corrupted length prefix?)"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise RemoteProtocolError("connection closed before frame body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RemoteProtocolError(f"undecodable frame: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise RemoteProtocolError(
            f"expected a JSON object frame, got {type(payload).__name__}"
        )
    return payload


def parse_worker_addresses(
    workers: Union[str, Sequence[Union[str, Tuple[str, int]]]],
) -> Tuple[Tuple[str, int], ...]:
    """Normalise worker addresses to ``(host, port)`` tuples.

    Accepts the CLI's comma-separated ``host1:port,host2:port`` string
    or any sequence of ``host:port`` strings / ``(host, port)`` pairs.
    """
    if isinstance(workers, str):
        parts: Sequence = [p for p in workers.split(",") if p.strip()]
    else:
        parts = list(workers)
    addresses: List[Tuple[str, int]] = []
    for part in parts:
        if isinstance(part, tuple):
            host, port = part
        else:
            host, _, port_text = str(part).strip().rpartition(":")
            if not host:
                raise ValueError(
                    f"worker address {part!r} is not HOST:PORT"
                )
            port = port_text
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError(
                f"worker address {part!r} has a non-integer port"
            ) from None
        if not (0 < port < 65536):
            raise ValueError(f"worker address {part!r}: port out of range")
        addresses.append((host, port))
    if not addresses:
        raise ValueError(
            "the remote backend needs at least one worker address "
            "(--workers HOST:PORT[,HOST:PORT...]); start workers with "
            "'python -m repro worker --serve HOST:PORT'"
        )
    return tuple(addresses)


def _address_label(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def auth_mac(token: str, nonce: str) -> str:
    """HMAC-SHA256 proof for the auth handshake (hex digest).

    The MAC covers the worker's per-connection ``nonce``, so a
    captured proof cannot be replayed against another connection; the
    shared-secret ``token`` itself never travels on the wire.
    """
    return hmac.new(
        token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


class _WorkerLink:
    """One client connection to one remote worker."""

    def __init__(
        self,
        address: Tuple[str, int],
        connect_timeout: float,
        token: Optional[str] = None,
    ) -> None:
        self.address = address
        self.label = _address_label(address)
        self.connect_timeout = connect_timeout
        self.token = token
        self._sock: Optional[socket.socket] = None
        self.hello: Dict[str, Any] = {}

    @property
    def connected(self) -> bool:
        """Whether this link currently holds an open socket."""
        return self._sock is not None

    def connect(self) -> None:
        """Dial the worker and run the version/schema handshake."""
        sock = socket.create_connection(
            self.address, timeout=self.connect_timeout
        )
        set_nodelay(sock)
        # computes can be long: no read timeout once connected
        sock.settimeout(None)
        try:
            from repro import __version__

            send_frame(
                sock,
                {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "schema": SCHEMA_VERSION,
                    "version": __version__,
                },
            )
            reply = recv_frame(sock)
            if reply is None or not reply.get("ok"):
                raise RemoteProtocolError(
                    f"worker {self.label} rejected the handshake: "
                    f"{(reply or {}).get('error', 'connection closed')}"
                )
            for field, ours in (
                ("protocol", PROTOCOL_VERSION),
                ("schema", SCHEMA_VERSION),
            ):
                theirs = reply.get(field)
                if theirs != ours:
                    raise RemoteProtocolError(
                        f"worker {self.label} speaks {field} {theirs}, "
                        f"this client speaks {ours}; upgrade the older "
                        "side"
                    )
            if reply.get("version") != __version__:
                raise RemoteProtocolError(
                    f"worker {self.label} runs repro "
                    f"{reply.get('version')}, this client runs "
                    f"{__version__}; results would not share cache keys "
                    "-- align the versions"
                )
            if reply.get("auth_required"):
                self._authenticate(sock, reply)
            self.hello = reply
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def _authenticate(
        self, sock: socket.socket, hello: Dict[str, Any]
    ) -> None:
        """Answer the worker's HMAC challenge (shared-secret token)."""
        if not self.token:
            raise RemoteProtocolError(
                f"worker {self.label} requires an auth token; pass "
                "--token (or set REPRO_WORKER_TOKEN) with the secret "
                "the worker was started with"
            )
        nonce = str(hello.get("nonce") or "")
        if not nonce:
            raise RemoteProtocolError(
                f"worker {self.label} requires auth but sent no nonce"
            )
        send_frame(sock, {"op": "auth", "mac": auth_mac(self.token, nonce)})
        reply = recv_frame(sock)
        if reply is None or not reply.get("ok"):
            raise RemoteProtocolError(
                f"worker {self.label} rejected the auth token: "
                f"{(reply or {}).get('error', 'connection closed')} -- "
                "check that --token/REPRO_WORKER_TOKEN matches on both "
                "sides"
            )

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip; returns the response frame.

        Socket trouble raises ``OSError``/``RemoteProtocolError`` --
        the caller decides whether that is a lost worker.
        """
        if self._sock is None:
            raise RemoteProtocolError(f"worker {self.label} not connected")
        send_frame(self._sock, payload)
        frame = recv_frame(self._sock)
        if frame is None:
            raise RemoteProtocolError(
                f"worker {self.label} closed the connection "
                f"mid-request ({payload.get('op')})"
            )
        return frame


def shard_of_batch(batch: CellBatch, n_shards: int) -> int:
    """Deterministic shard index of a cell batch.

    A batch travels as one unit (splitting it would forfeit the
    shared problem construction and vectorized solve), so it is
    keyed by its first cell's content key -- still a pure function of
    cell content, so every host agrees on the partition.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    key = batch.keys[0] if batch.keys is not None else batch.specs[0].key()
    return int(key[:8], 16) % n_shards


def _result_groups(reply: Dict[str, Any], sizes: List[int]) -> List[List[CellResult]]:
    """A ``run_batches`` reply's cells: one group of ``sizes[i]`` per batch.

    Any other shape, or a cell payload that does not decode, raises
    :class:`RemoteProtocolError`, so the shard fails over like any
    other broken exchange.
    """
    groups = reply.get("batches")
    if not isinstance(groups, list) or sizes != [
        len(group) if isinstance(group, list) else -1 for group in groups
    ]:
        raise RemoteProtocolError(
            f"malformed run_batches reply: expected cells per batch {sizes}"
        )
    try:
        return [[CellResult.from_payload(p) for p in group] for group in groups]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(
            f"malformed run_batches reply: undecodable cell ({exc!r})"
        ) from exc


def _reply_events(
    reply: Dict[str, Any], worker: str
) -> List[Tuple[str, Dict[str, Any]]]:
    """A ``run_batches`` reply's events as ``(kind, data)``, tagged ``worker``.

    An event that does not decode raises :class:`RemoteProtocolError`,
    as an undecodable cell does in :func:`_result_groups`.
    """
    try:
        return [
            (
                str(event.get("kind", "worker_event")),
                {"worker": worker, **(event.get("data") or {})},
            )
            for event in reply.get("events", ())
        ]
    except (AttributeError, TypeError) as exc:
        raise RemoteProtocolError(
            f"malformed run_batches reply: undecodable event ({exc!r})"
        ) from exc


class RemoteBackend(ExecutorBackend):
    """Dispatch content-keyed shards of cell batches to remote workers.

    Parameters
    ----------
    workers:
        Worker addresses -- the CLI's ``host1:port,host2:port`` string
        or a sequence of ``host:port`` strings / ``(host, port)``
        pairs.  The *configured* address count fixes the shard count,
        so the partition is stable even while individual workers come
        and go.
    connect_timeout:
        Seconds to wait for a TCP connect + handshake per worker.
    token:
        Shared-secret auth token (the worker's ``--token`` /
        ``REPRO_WORKER_TOKEN``).  Sent as an HMAC proof over the
        worker's handshake nonce; never transmitted in the clear.
        ``None`` connects only to workers that do not require auth.
    """

    name = "remote"

    def __init__(
        self,
        workers: Union[str, Sequence],
        connect_timeout: float = 10.0,
        token: Optional[str] = None,
    ) -> None:
        # dedupe while preserving order: a repeated address would make
        # two drain threads share one socket and corrupt the framing
        self.addresses = tuple(
            dict.fromkeys(parse_worker_addresses(workers))
        )
        self.connect_timeout = float(connect_timeout)
        self.token = token
        self._links: Dict[Tuple[str, int], _WorkerLink] = {
            address: _WorkerLink(address, self.connect_timeout, token)
            for address in self.addresses
        }
        # one worker_lost per outage, not one per dispatch attempt
        self._reported_lost: set = set()

    def describe(self) -> str:
        """``remote[N]`` where N is the configured worker count."""
        return f"remote[{len(self.addresses)}]"

    def close(self) -> None:
        """Close every worker connection (workers keep serving others)."""
        for link in self._links.values():
            link.close()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _mark_lost(
        self,
        link: _WorkerLink,
        error: BaseException,
        emit: EmitFn,
        **context: Any,
    ) -> None:
        """Close a failed link and emit one ``worker_lost`` per outage."""
        link.close()
        if link.address not in self._reported_lost:
            self._reported_lost.add(link.address)
            emit(
                "worker_lost",
                worker=link.label,
                error=repr(error),
                **context,
            )

    def _live_links(self, emit: EmitFn) -> List[_WorkerLink]:
        """Connect where needed; return the links that are live now."""
        live: List[_WorkerLink] = []
        errors: List[str] = []
        for address in self.addresses:
            link = self._links[address]
            if not link.connected:
                try:
                    link.connect()
                    self._reported_lost.discard(address)
                except (OSError, RemoteProtocolError) as exc:
                    errors.append(f"{link.label}: {exc}")
                    self._mark_lost(link, exc, emit, phase="connect")
                    continue
            live.append(link)
        if not live:
            raise RuntimeError(
                "no remote workers reachable "
                f"({'; '.join(errors) or 'all connections lost'}). Start "
                "workers with 'python -m repro worker --serve HOST:PORT' "
                "and pass their addresses via --workers."
            )
        return live

    # ------------------------------------------------------------------
    # up-front registry validation
    # ------------------------------------------------------------------
    def _validate_registries(
        self,
        batches: Sequence[CellBatch],
        links: List[_WorkerLink],
    ) -> None:
        """Fail before dispatch when a worker cannot resolve the cells.

        Checks the scheme/workload names each live worker listed in
        its hello reply and raises an actionable ``RuntimeError`` when
        anything the pending cells need is missing.  A worker
        registers only at start-up (its bootstrap hooks), and the
        hello is refreshed on every (re)connect, so no round trip is
        needed; a worker that died since is caught by shard failover.
        """
        needed_schemes = {s.scheme for b in batches for s in b.specs}
        needed_benchmarks = {s.benchmark for b in batches for s in b.specs}
        problems: List[str] = []
        for link in links:
            missing_schemes = needed_schemes - set(
                link.hello.get("schemes", ())
            )
            missing_benchmarks = needed_benchmarks - set(
                link.hello.get("benchmarks", ())
            )
            if missing_schemes or missing_benchmarks:
                missing = sorted(missing_schemes | missing_benchmarks)
                problems.append(f"{link.label} is missing {missing}")
        if problems:
            from repro.engine.bootstrap import BOOTSTRAP_REMEDY

            raise RuntimeError(
                "remote workers cannot resolve the pending cells: "
                f"{'; '.join(problems)}. Remote workers only see "
                "registrations made at import time or through the "
                f"bootstrap hook -- {BOOTSTRAP_REMEDY} (workers also "
                "accept --bootstrap module:function)."
            )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _request_shard(
        self,
        link: _WorkerLink,
        shard: int,
        members: Sequence[int],
        batches: Sequence[CellBatch],
    ) -> Dict[str, Any]:
        """One shard round trip: every member batch as its spec payloads.

        Socket trouble raises ``OSError``/``RemoteProtocolError`` for
        the caller's failover handling.
        """
        return link.request(
            {
                "op": "run_batches",
                "shard": shard,
                "batches": [
                    [spec.to_payload() for spec in batches[i].specs]
                    for i in members
                ],
            }
        )

    def run_batches(
        self,
        batches: Sequence[CellBatch],
        emit: EmitFn = null_emit,
    ) -> List[List[CellResult]]:
        """Shard batches across workers; merge by original position.

        Shard membership is the content-keyed partition of
        :func:`shard_of_batch` over the
        *configured* worker count; shard -> worker placement is a
        work-queue (surviving workers drain shards of lost ones).
        """
        if not batches:
            return []
        emit_lock = threading.Lock()

        def locked_emit(kind: str, **data: Any) -> None:
            with emit_lock:
                emit(kind, **data)

        links = self._live_links(locked_emit)
        self._validate_registries(batches, links)

        n_shards = len(self.addresses)
        shard_members: Dict[int, List[int]] = {}
        for i, batch in enumerate(batches):
            shard = shard_of_batch(batch, n_shards)
            shard_members.setdefault(shard, []).append(i)
        work = deque(sorted(shard_members.items()))
        out: List[Optional[List[CellResult]]] = [None] * len(batches)
        failures: List[BaseException] = []

        def drain(link: _WorkerLink) -> None:
            while True:
                with emit_lock:
                    if failures or not work:
                        return
                    shard, members = work.popleft()
                n_cells = sum(len(batches[i]) for i in members)
                locked_emit(
                    "shard_started",
                    shard=shard,
                    n_shards=n_shards,
                    n_cells=n_cells,
                    worker=link.label,
                )
                start = time.perf_counter()
                try:
                    reply = self._request_shard(
                        link, shard, members, batches
                    )
                    if reply.get("ok"):
                        cells = _result_groups(
                            reply, [len(batches[i]) for i in members]
                        )
                        events = _reply_events(reply, link.label)
                except FrameTooLargeError as exc:
                    # deterministic for this payload: retrying on
                    # another worker would fail identically
                    failures.append(exc)
                    return
                except (OSError, RemoteProtocolError) as exc:
                    with emit_lock:
                        work.appendleft((shard, members))
                    self._mark_lost(
                        link, exc, locked_emit, shard=shard
                    )
                    return
                if not reply.get("ok"):
                    failures.append(
                        RuntimeError(
                            f"worker {link.label} failed shard {shard}: "
                            f"{reply.get('error')}"
                        )
                    )
                    return
                with emit_lock:
                    # forward the worker's events only now -- a shard
                    # that failed over never double-reports
                    for kind, data in events:
                        emit(kind, **data)
                    emit(
                        "shard_finished",
                        shard=shard,
                        n_shards=n_shards,
                        n_cells=n_cells,
                        worker=link.label,
                        seconds=round(time.perf_counter() - start, 6),
                    )
                    for index, group in zip(members, cells):
                        out[index] = group

        def guarded_drain(link: _WorkerLink) -> None:
            # any other fault ends the run with its own error, never
            # with this thread dead and its shard's results unset
            try:
                drain(link)
            except Exception as exc:
                failures.append(exc)

        while True:
            active = [link for link in links if link.connected]
            if not active:
                raise RuntimeError(
                    "all remote workers were lost with shards still "
                    "pending; restart workers ('python -m repro worker "
                    "--serve HOST:PORT') and rerun -- completed cells "
                    "are already in the result cache."
                )
            threads = [
                threading.Thread(
                    target=guarded_drain, args=(link,), daemon=True
                )
                for link in active
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if failures:
                raise failures[0]
            if not work:
                break
            links = [link for link in links if link.connected]
        return out  # type: ignore[return-value]
