"""Remote executor backend: protocol, dispatch, failover, bootstrap.

Loopback workers (``python -m repro worker --serve 127.0.0.1:0``) are
real subprocesses speaking the real length-prefixed JSON protocol, so
these tests cover the wire format, the content-keyed shard dispatch,
the up-front registry validation, ``worker_lost`` failover and the
``REPRO_BOOTSTRAP`` hook end to end.
"""

from pathlib import Path

import pytest

from repro.engine import (
    EventLog,
    ExperimentEngine,
    RemoteBackend,
    SerialBackend,
    benchmark_specs,
)
from repro.engine.backends.remote import parse_worker_addresses
from repro.engine.worker import start_loopback_workers, stop_workers

REPO_ROOT = str(Path(__file__).resolve().parents[2])
BOOTSTRAP_SPEC = "tests.engine.bootstrap_reg:register"


def _two_group_specs():
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("fmm", "decode", "nominal")
    )


class TestAddressParsing:
    def test_comma_separated_string(self):
        assert parse_worker_addresses("a:1, b:2") == (("a", 1), ("b", 2))

    def test_sequences_and_tuples(self):
        assert parse_worker_addresses(["h:7700", ("k", 7701)]) == (
            ("h", 7700),
            ("k", 7701),
        )

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_worker_addresses("justahost")

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError, match="port"):
            parse_worker_addresses("h:notaport")
        with pytest.raises(ValueError, match="range"):
            parse_worker_addresses("h:70000")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            parse_worker_addresses("")


class TestFactory:
    def test_remote_requires_worker_addresses(self):
        with pytest.raises(ValueError, match="worker --serve"):
            ExperimentEngine(remote_workers="")

    def test_remote_from_addresses(self):
        with ExperimentEngine(
            remote_workers="host1:7700,host2:7701"
        ) as eng:
            assert isinstance(eng.backend, RemoteBackend)
            assert eng.backend.describe() == "remote[2]"

    def test_other_backends_reject_remote_workers_option(self):
        """A prebuilt backend excludes the inputs it replaces."""
        with pytest.raises(ValueError, match="not both"):
            ExperimentEngine(backend=SerialBackend(), remote_workers="h:1")

    def test_other_backends_reject_token_actionably(self):
        """`--token` without `--workers` must name the flag's remedy,
        not the internal option name alone."""
        with pytest.raises(ValueError, match="pass --workers"):
            ExperimentEngine(worker_token="s3cret")

    def test_engine_defaults_to_remote_when_workers_given(self):
        eng = ExperimentEngine(remote_workers="host1:7700")
        assert eng.backend.name == "remote"  # connects lazily
        eng.close()


class TestLoopbackDispatch:
    def test_remote_equals_serial(self, loopback_workers):
        specs = _two_group_specs()
        with ExperimentEngine() as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            remote_workers=loopback_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_online_cells_remote_equals_serial(self, loopback_workers):
        specs = list(
            benchmark_specs(
                "cholesky", "simple_alu", "online", seed=11, n_samp=2_000
            )
        )
        with ExperimentEngine() as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            remote_workers=loopback_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_worker_events_forwarded_with_worker_tag(
        self, loopback_workers
    ):
        specs = _two_group_specs()
        eng = ExperimentEngine(
            remote_workers=loopback_workers
        )
        log = eng.subscribe(EventLog())
        eng.run_cells(specs)
        eng.close()
        computed = log.of_kind("cell_computed")
        assert len(computed) == len(specs)
        assert all(e.get("worker") for e in computed)
        started = log.of_kind("shard_started")
        assert started and all(e.get("worker") for e in started)
        assert sum(e.get("n_cells") for e in started) == len(specs)

    def test_registry_validation_fails_before_dispatch(
        self, loopback_workers
    ):
        """A workload the workers cannot resolve must fail up front,
        actionably, without computing anything remotely."""
        from repro.workloads import register_synthetic, unregister_workload

        register_synthetic("synth_remote_late", heterogeneity=2.0)
        eng = ExperimentEngine(
            remote_workers=loopback_workers
        )
        log = eng.subscribe(EventLog())
        try:
            specs = list(
                benchmark_specs("synth_remote_late", "decode", "synts")
            )
            with pytest.raises(RuntimeError, match="REPRO_BOOTSTRAP"):
                eng.run_cells(specs)
            assert log.of_kind("cell_computed") == []
            assert log.of_kind("shard_started") == []
        finally:
            eng.close()
            unregister_workload("synth_remote_late")

    def test_dispatch_sends_no_registries_request(
        self, loopback_workers, monkeypatch
    ):
        """Registries are validated from the hello reply, and workers
        keep no store: a dispatch is ``run_batches`` round trips only."""
        from repro.engine.backends.remote import _WorkerLink

        ops = []
        original = _WorkerLink.request

        def recording_request(link, payload):
            ops.append(payload.get("op"))
            return original(link, payload)

        monkeypatch.setattr(_WorkerLink, "request", recording_request)
        with ExperimentEngine(
            remote_workers=loopback_workers
        ) as eng:
            eng.run_cells(_two_group_specs())
        assert set(ops) == {"run_batches"}


class TestWireLatency:
    """Small frames must not stall on Nagle + delayed ACK (~40 ms)."""

    def test_client_link_sets_nodelay(self, loopback_workers):
        import socket

        from repro.engine.backends.remote import _WorkerLink

        address = parse_worker_addresses(loopback_workers)[0]
        link = _WorkerLink(address, connect_timeout=10)
        link.connect()
        try:
            assert link._sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        finally:
            link.close()

    def test_single_cell_round_trip_is_fast(self):
        """A worker streams events then the result as separate frames;
        with Nagle on at the worker each round trip waits ~40 ms on
        the client's delayed ACK, with it off about a millisecond."""
        import statistics
        import time

        from repro.engine.cells import CellBatch

        spec = benchmark_specs("radix", "decode", "nominal")[0]
        batch = CellBatch(specs=(spec,), keys=(spec.key(),))
        processes, addresses = start_loopback_workers(1)
        backend = RemoteBackend(addresses)
        try:
            backend.run_batches([batch])  # connect + warm the worker
            times = []
            for _ in range(10):
                start = time.perf_counter()
                backend.run_batches([batch])
                times.append(time.perf_counter() - start)
        finally:
            backend.close()
            stop_workers(processes)
        assert statistics.median(times) < 0.010, times


class TestFailover:
    def test_lost_worker_fails_over_to_survivor(self):
        processes, addresses = start_loopback_workers(2)
        try:
            eng = ExperimentEngine(
                remote_workers=addresses
            )
            log = eng.subscribe(EventLog())
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
            assert log.of_kind("worker_lost") == []

            processes[0].terminate()
            processes[0].wait(timeout=10)
            specs = list(
                benchmark_specs("fmm", "decode", "no_ts")
                + benchmark_specs("barnes", "decode", "per_core_ts")
            )
            with ExperimentEngine() as serial:
                reference = serial.run_cells(specs)
            assert eng.run_cells(specs) == reference
            lost = log.of_kind("worker_lost")
            assert len(lost) == 1
            assert lost[0].get("worker") == addresses[0]
            eng.close()
        finally:
            stop_workers(processes)

    def test_all_workers_lost_raises_actionably(self):
        processes, addresses = start_loopback_workers(1)
        try:
            eng = ExperimentEngine(
                remote_workers=addresses
            )
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
            stop_workers(processes)
            with pytest.raises(RuntimeError, match="worker"):
                eng.run_cells(
                    list(benchmark_specs("fmm", "decode", "synts"))
                )
            eng.close()
        finally:
            stop_workers(processes)

    @pytest.mark.parametrize(
        "damage",
        ("no_batches", "short_group", "short_batch_list", "bad_cell",
         "mistyped_cell", "bad_event"),
    )
    def test_malformed_reply_ends_the_run(self, loopback_workers, damage):
        """A reply without ``batches``, with fewer groups or cells than
        were sent, or with a cell or event payload that does not
        decode or holds a mistyped value, is a protocol error: the
        shard fails over, and with
        every worker answering that way the run ends in the
        all-workers-lost error instead of returning ``None`` cells."""
        backend = RemoteBackend(loopback_workers)
        original = backend._request_shard

        def damaged(link, shard, members, batches):
            reply = original(link, shard, members, batches)
            if damage == "no_batches":
                del reply["batches"]
            elif damage == "short_group":
                reply["batches"][-1] = reply["batches"][-1][:-1]
            elif damage == "short_batch_list":
                reply["batches"] = reply["batches"][:-1]
            elif damage == "bad_cell":
                reply["batches"][0][0] = {"energy": "x"}
            elif damage == "mistyped_cell":
                reply["batches"][0][0]["energy"] = "x"
            else:
                reply["events"] = [1]
            return reply

        backend._request_shard = damaged
        with ExperimentEngine(backend=backend) as eng:
            log = eng.subscribe(EventLog())
            with pytest.raises(RuntimeError, match="all remote workers"):
                eng.run_cells(_two_group_specs())
        lost = log.of_kind("worker_lost")
        assert len(lost) == len(loopback_workers)
        assert all("malformed run_batches reply" in e.get("error") for e in lost)

    def test_unreachable_workers_raise_actionably(self):
        # a port nothing listens on: connect is refused immediately
        eng = ExperimentEngine(
            remote_workers="127.0.0.1:9"
        )
        log = eng.subscribe(EventLog())
        with pytest.raises(RuntimeError, match="no remote workers"):
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
        assert len(log.of_kind("worker_lost")) == 1
        eng.close()


class TestBootstrapHook:
    def test_parse_bootstrap_rejects_bad_specs(self):
        from repro.engine.bootstrap import parse_bootstrap

        with pytest.raises(RuntimeError, match="no_such_module"):
            parse_bootstrap("no_such_module_xyz:register")
        with pytest.raises(RuntimeError, match="no attribute"):
            parse_bootstrap("tests.engine.bootstrap_reg:missing_fn")
        with pytest.raises(RuntimeError, match="non-callable"):
            parse_bootstrap("tests.engine.bootstrap_reg:SYNTH_NAME")

    def test_bootstrap_specs_merges_env_and_extra(self, monkeypatch):
        from repro.engine.bootstrap import bootstrap_specs

        monkeypatch.setenv("REPRO_BOOTSTRAP", "a:f, b:g ,, a:f")
        assert bootstrap_specs(["c:h", "a:f"]) == ["a:f", "b:g", "c:h"]
        monkeypatch.delenv("REPRO_BOOTSTRAP")
        assert bootstrap_specs() == []

    def test_run_bootstrap_is_idempotent(self, monkeypatch):
        from repro.engine import bootstrap
        from repro.workloads import WORKLOAD_REGISTRY, unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        monkeypatch.setattr(bootstrap, "_already_run", set())
        try:
            assert bootstrap.run_bootstrap() == [BOOTSTRAP_SPEC]
            assert bootstrap.run_bootstrap() == []  # second run: no-op
        finally:
            if bootstrap_reg.SYNTH_NAME in WORKLOAD_REGISTRY:
                unregister_workload(bootstrap_reg.SYNTH_NAME)

    def test_synthetic_resolves_on_remote_workers(self):
        """The acceptance path: a runtime-registered synthetic
        workload resolves on remote workers via REPRO_BOOTSTRAP."""
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        processes, addresses = start_loopback_workers(
            2,
            extra_env={"REPRO_BOOTSTRAP": BOOTSTRAP_SPEC},
            extra_paths=[REPO_ROOT],
        )
        bootstrap_reg.register()
        try:
            specs = list(
                benchmark_specs(bootstrap_reg.SYNTH_NAME, "decode", "synts")
                + benchmark_specs(
                    bootstrap_reg.SYNTH_NAME, "simple_alu", "per_core_ts"
                )
            )
            with ExperimentEngine() as eng:
                reference = eng.run_cells(specs)
            with ExperimentEngine(
                remote_workers=addresses
            ) as eng:
                assert eng.run_cells(specs) == reference
        finally:
            stop_workers(processes)
            unregister_workload(bootstrap_reg.SYNTH_NAME)


@pytest.fixture(scope="module")
def authed_workers():
    """One loopback worker started with ``--token sesame``."""
    processes, addresses = start_loopback_workers(
        1, extra_args=["--token", "sesame"]
    )
    yield addresses
    stop_workers(processes)


class TestAuthToken:
    """Shared-secret worker auth: HMAC over the handshake nonce."""

    def test_matching_token_runs(self, authed_workers):
        specs = list(benchmark_specs("radix", "decode", "synts"))
        with ExperimentEngine() as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            remote_workers=authed_workers,
            worker_token="sesame",
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_token_from_environment(self, authed_workers, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TOKEN", "sesame")
        specs = list(benchmark_specs("fmm", "decode", "nominal"))
        with ExperimentEngine() as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            remote_workers=authed_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_missing_token_rejected_actionably(self, authed_workers):
        eng = ExperimentEngine(
            remote_workers=authed_workers
        )
        log = eng.subscribe(EventLog())
        with pytest.raises(RuntimeError, match="REPRO_WORKER_TOKEN"):
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
        assert log.of_kind("cell_computed") == []
        eng.close()

    def test_wrong_token_rejected_before_any_payload(self, authed_workers):
        eng = ExperimentEngine(
            remote_workers=authed_workers,
            worker_token="not-sesame",
        )
        log = eng.subscribe(EventLog())
        with pytest.raises(RuntimeError, match="token"):
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
        assert log.of_kind("shard_started") == []
        assert log.of_kind("cell_computed") == []
        eng.close()

    def test_unauthed_payload_op_is_refused(self, authed_workers):
        """A client that skips the auth step is cut off before any
        payload op is served."""
        from repro.engine.backends.remote import (
            parse_worker_addresses,
            recv_frame,
            send_frame,
        )
        import socket

        (address,) = parse_worker_addresses(authed_workers)
        with socket.create_connection(address, timeout=10) as sock:
            send_frame(sock, {"op": "run_batches", "batches": []})
            reply = recv_frame(sock)
            assert reply is not None and not reply.get("ok")
            assert reply.get("kind") == "auth"
            # the worker closed the connection after refusing
            assert recv_frame(sock) is None

    def test_unauthed_large_frame_is_dropped_unparsed(
        self, authed_workers
    ):
        """Pre-auth frames are size-capped: an unauthenticated peer
        announcing a shard-sized frame is disconnected before the
        worker buffers or parses any of it."""
        import socket
        import struct

        from repro.engine.backends.remote import (
            PREAUTH_MAX_FRAME_BYTES,
            parse_worker_addresses,
            recv_frame,
        )

        (address,) = parse_worker_addresses(authed_workers)
        with socket.create_connection(address, timeout=10) as sock:
            # announce a frame just over the pre-auth cap; never
            # authenticate
            sock.sendall(struct.pack(">I", PREAUTH_MAX_FRAME_BYTES + 1))
            sock.sendall(b"{")  # the worker should not wait for more
            sock.settimeout(10)
            assert recv_frame(sock) is None  # connection closed

    def test_tokenless_worker_ignores_client_token(self, loopback_workers):
        specs = list(benchmark_specs("radix", "decode", "synts"))
        with ExperimentEngine() as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            remote_workers=loopback_workers,
            worker_token="unneeded",
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_auth_mac_is_deterministic_hmac(self):
        import hashlib
        import hmac as hmac_mod

        from repro.engine.backends.remote import auth_mac

        expected = hmac_mod.new(
            b"tok", b"nonce", hashlib.sha256
        ).hexdigest()
        assert auth_mac("tok", "nonce") == expected
        assert auth_mac("tok", "other") != expected


class TestProtocolV4:
    """Version 4 serves hello/auth/run_batches/ping/shutdown only."""

    def test_older_client_is_refused_at_connect(
        self, loopback_workers, monkeypatch
    ):
        from repro.engine.backends import remote
        from repro.engine.backends.remote import (
            RemoteProtocolError,
            _WorkerLink,
        )

        monkeypatch.setattr(remote, "PROTOCOL_VERSION", 3)
        link = _WorkerLink(
            parse_worker_addresses(loopback_workers)[0], connect_timeout=10
        )
        with pytest.raises(
            RemoteProtocolError,
            match="speaks protocol 4, this client speaks 3; upgrade the "
            "older side",
        ):
            link.connect()
        assert not link.connected

    def test_removed_ops_are_unknown(self, authed_workers):
        """On an authenticated connection, version 3's worker-store and
        diagnostic ops get ``unknown op`` error frames, and the
        connection stays usable."""
        import socket

        from repro.engine.backends.remote import (
            auth_mac,
            recv_frame,
            send_frame,
        )

        (address,) = parse_worker_addresses(authed_workers)
        with socket.create_connection(address, timeout=10) as sock:
            send_frame(sock, {"op": "hello"})
            nonce = recv_frame(sock)["nonce"]
            send_frame(sock, {"op": "auth", "mac": auth_mac("sesame", nonce)})
            assert recv_frame(sock) == {"ok": True, "op": "auth"}
            for op in ("query_keys", "registries"):
                send_frame(sock, {"op": op})
                reply = recv_frame(sock)
                assert reply is not None and not reply.get("ok")
                assert reply.get("error") == f"unknown op {op!r}"
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock) == {"ok": True, "op": "pong"}

    @pytest.mark.parametrize(
        "batches",
        (
            [[]],
            [[{"benchmark": "radix", "stage": "decode", "scheme": "synts",
               "colour": "red"}]],
            5,
        ),
        ids=("empty_batch", "unknown_spec_field", "not_a_list"),
    )
    def test_undecodable_shard_is_a_protocol_error(
        self, loopback_workers, batches
    ):
        """A shard that does not decode is malformed, not a registry
        miss: the error names the v4 batch shape, not the bootstrap
        remedy, and the connection stays usable."""
        import socket

        from repro.engine.backends.remote import recv_frame, send_frame

        address = parse_worker_addresses(loopback_workers)[0]
        with socket.create_connection(address, timeout=10) as sock:
            send_frame(sock, {"op": "run_batches", "shard": 0,
                              "batches": batches})
            reply = recv_frame(sock)
            assert reply is not None and not reply.get("ok")
            assert reply.get("kind") == "protocol"
            assert "non-empty list of spec payloads" in reply["error"]
            assert "REPRO_BOOTSTRAP" not in reply["error"]
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock) == {"ok": True, "op": "pong"}


class TestWorkerCLI:
    def test_worker_help_exits_zero(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as err:
            main(["worker", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--serve" in out and "--bootstrap" in out
        assert "--token" in out
        # workers keep no result store
        assert "--cache-dir" not in out

    def test_engine_flags_before_worker_subcommand_survive(self):
        """`repro --token S worker ...` must not lose the flag to the
        subparser's defaults -- a worker the operator believes is
        token-protected must actually get the token."""
        from repro.__main__ import _build_parser, _normalize_argv
        from repro.experiments import EXPERIMENTS
        from repro.experiments.ablations import ABLATIONS

        parser = _build_parser(EXPERIMENTS, ABLATIONS)
        args = parser.parse_args(
            _normalize_argv(
                ["--token", "sesame", "worker", "--serve", "127.0.0.1:1"],
                EXPERIMENTS,
            )
        )
        assert getattr(args, "token", None) == "sesame"

    def test_run_options_before_worker_subcommand_are_refused(
        self, capsys
    ):
        """`repro --cache-dir D worker ...` once gave the worker a
        store; a worker keeps none now, so the option is refused
        instead of silently ignored."""
        from repro.__main__ import main

        assert main(
            ["--cache-dir", "/tmp/w", "worker", "--serve", "127.0.0.1:1"]
        ) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_worker_bad_serve_address(self, capsys):
        from repro.__main__ import main

        assert main(["worker", "--serve", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_cli_run_over_loopback_workers(self, capsys, loopback_workers):
        """`python -m repro fig_4_7 --workers ...` runs remote."""
        from repro.__main__ import main

        code = main(
            ["fig_4_7", "--workers", ",".join(loopback_workers), "--stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "sampling" in captured.out.lower()
        assert "(backend=remote[2])" in captured.err

    def test_cli_remote_without_workers_is_actionable(self, capsys):
        """An empty worker list names how to start workers."""
        from repro.__main__ import main

        assert main(["run", "fig_4_7", "--workers", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "worker --serve" in err

    def test_cli_token_without_workers_is_actionable(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig_4_7", "--token", "S"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "--token" in err and "--workers" in err
