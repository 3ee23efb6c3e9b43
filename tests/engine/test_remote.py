"""Remote executor backend: protocol, dispatch, failover, bootstrap.

Loopback workers (``python -m repro worker --serve 127.0.0.1:0``) are
real subprocesses speaking the real length-prefixed JSON protocol, so
these tests cover the wire format, the content-keyed shard dispatch,
the up-front registry validation, ``worker_lost`` failover and the
``REPRO_BOOTSTRAP`` hook end to end.
"""

import os
from pathlib import Path

import pytest

from repro.engine import (
    EventLog,
    ExperimentEngine,
    RemoteBackend,
    benchmark_specs,
    make_backend,
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
    def test_remote_is_registered(self):
        from repro.engine import backend_names

        assert "remote" in backend_names()

    def test_remote_requires_worker_addresses(self):
        with pytest.raises(ValueError, match="--workers"):
            make_backend("remote")

    def test_remote_from_addresses(self):
        backend = make_backend(
            "remote", remote_workers="host1:7700,host2:7701"
        )
        assert isinstance(backend, RemoteBackend)
        assert backend.describe() == "remote[2]"
        assert backend.is_parallel
        backend.close()

    def test_single_worker_is_not_parallel(self):
        backend = RemoteBackend("host1:7700")
        assert not backend.is_parallel
        backend.close()

    def test_other_backends_reject_remote_workers_option(self):
        with pytest.raises(ValueError, match="--backend remote"):
            make_backend("sharded", remote_workers="h:1")

    def test_other_backends_reject_token_actionably(self):
        """`--token` without `--backend remote` must name the flag's
        remedy, not the internal option name alone."""
        with pytest.raises(ValueError, match="--backend remote"):
            make_backend("process", workers=2, worker_token="s3cret")

    def test_engine_defaults_to_remote_when_workers_given(self):
        eng = ExperimentEngine(remote_workers="host1:7700")
        assert eng.backend.name == "remote"  # connects lazily
        eng.close()


class TestLoopbackDispatch:
    def test_remote_equals_serial(self, loopback_workers):
        specs = _two_group_specs()
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote", remote_workers=loopback_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_online_cells_remote_equals_serial(self, loopback_workers):
        specs = list(
            benchmark_specs(
                "cholesky", "simple_alu", "online", seed=11, n_samp=2_000
            )
        )
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote", remote_workers=loopback_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_worker_events_forwarded_with_worker_tag(
        self, loopback_workers
    ):
        specs = _two_group_specs()
        eng = ExperimentEngine(
            backend="remote", remote_workers=loopback_workers
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
            backend="remote", remote_workers=loopback_workers
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
        """Registries are validated from the hello reply: a dispatch
        costs no extra ``registries`` round trip per worker."""
        from repro.engine.backends.remote import _WorkerLink

        ops = []
        original = _WorkerLink.request

        def recording_request(link, payload):
            ops.append(payload.get("op"))
            return original(link, payload)

        monkeypatch.setattr(_WorkerLink, "request", recording_request)
        with ExperimentEngine(
            backend="remote", remote_workers=loopback_workers
        ) as eng:
            eng.run_cells(_two_group_specs())
        assert "run_batches" in ops
        assert "registries" not in ops


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
                backend="remote", remote_workers=addresses
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
            with ExperimentEngine(backend="serial") as serial:
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
                backend="remote", remote_workers=addresses
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

    def test_unreachable_workers_raise_actionably(self):
        # a port nothing listens on: connect is refused immediately
        eng = ExperimentEngine(
            backend="remote", remote_workers="127.0.0.1:9"
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
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        monkeypatch.setattr(bootstrap, "_already_run", set())
        try:
            assert bootstrap.run_bootstrap() == [BOOTSTRAP_SPEC]
            assert bootstrap.run_bootstrap() == []  # second run: no-op
        finally:
            if bootstrap_reg.SYNTH_NAME in _workload_names():
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
            with ExperimentEngine(backend="serial") as eng:
                reference = eng.run_cells(specs)
            with ExperimentEngine(
                backend="remote", remote_workers=addresses
            ) as eng:
                assert eng.run_cells(specs) == reference
        finally:
            stop_workers(processes)
            unregister_workload(bootstrap_reg.SYNTH_NAME)

    def test_synthetic_resolves_on_process_pool(self, monkeypatch):
        """Same acceptance path for the process pool: the worker
        initialiser runs the bootstrap, so the up-front registry probe
        and the dispatch both resolve the synthetic workload."""
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        bootstrap_reg.register()
        try:
            specs = list(
                benchmark_specs(bootstrap_reg.SYNTH_NAME, "decode", "synts")
                + benchmark_specs(
                    bootstrap_reg.SYNTH_NAME, "simple_alu", "synts"
                )
            )
            with ExperimentEngine(backend="serial") as eng:
                reference = eng.run_cells(specs)
            with ExperimentEngine(jobs=2, backend="process") as eng:
                assert eng.run_cells(specs) == reference
        finally:
            unregister_workload(bootstrap_reg.SYNTH_NAME)

    def test_spawned_pool_worker_runs_bootstrap(self, monkeypatch):
        """Under the spawn start method nothing is inherited, so a
        resolving registry proves the initialiser hook itself."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.backends.process import (
            _pool_initializer,
            _worker_registry_names,
        )
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_pool_initializer,
        )
        try:
            _, benchmarks = pool.submit(_worker_registry_names).result(
                timeout=120
            )
            assert bootstrap_reg.SYNTH_NAME in benchmarks
        finally:
            pool.shutdown(wait=True)
            if bootstrap_reg.SYNTH_NAME in _workload_names():
                unregister_workload(bootstrap_reg.SYNTH_NAME)


def _workload_names():
    from repro.workloads import workload_names

    return workload_names()


class TestAuthToken:
    """Shared-secret worker auth: HMAC over the handshake nonce."""

    @pytest.fixture(scope="class")
    def authed_workers(self):
        processes, addresses = start_loopback_workers(
            1, extra_args=["--token", "sesame"]
        )
        yield addresses
        stop_workers(processes)

    def test_matching_token_runs(self, authed_workers):
        specs = list(benchmark_specs("radix", "decode", "synts"))
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote",
            remote_workers=authed_workers,
            worker_token="sesame",
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_token_from_environment(self, authed_workers, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TOKEN", "sesame")
        specs = list(benchmark_specs("fmm", "decode", "nominal"))
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote", remote_workers=authed_workers
        ) as eng:
            assert eng.run_cells(specs) == reference

    def test_missing_token_rejected_actionably(self, authed_workers):
        eng = ExperimentEngine(
            backend="remote", remote_workers=authed_workers
        )
        log = eng.subscribe(EventLog())
        with pytest.raises(RuntimeError, match="REPRO_WORKER_TOKEN"):
            eng.run_cells(list(benchmark_specs("radix", "decode", "synts")))
        assert log.of_kind("cell_computed") == []
        eng.close()

    def test_wrong_token_rejected_before_any_payload(self, authed_workers):
        eng = ExperimentEngine(
            backend="remote",
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
            send_frame(sock, {"op": "registries"})
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
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote",
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


class TestDeltaProtocol:
    """Worker-side store advertisement and the two-phase dispatch."""

    @pytest.fixture()
    def caching_worker(self, tmp_path):
        # jsondir (no memory tier) so tests can mutate the store
        # externally through the shared directory
        processes, addresses = start_loopback_workers(
            1,
            extra_args=[
                "--store",
                "jsondir",
                "--cache-dir",
                str(tmp_path / "wstore"),
            ],
        )
        yield addresses
        stop_workers(processes)

    def test_hello_advertises_caching(self, caching_worker, loopback_workers):
        from repro.engine.backends.remote import (
            _WorkerLink,
            parse_worker_addresses,
        )

        (cached_addr,) = parse_worker_addresses(caching_worker)
        link = _WorkerLink(cached_addr, connect_timeout=10)
        link.connect()
        assert link.hello.get("caching") is True
        link.close()
        plain_addr = parse_worker_addresses(loopback_workers)[0]
        link = _WorkerLink(plain_addr, connect_timeout=10)
        link.connect()
        assert link.hello.get("caching") is False
        link.close()

    def test_query_keys_reports_store_hits(self, caching_worker):
        from repro.engine.backends.remote import (
            _WorkerLink,
            parse_worker_addresses,
        )

        specs = list(benchmark_specs("radix", "decode", "synts"))
        keys = [spec.key() for spec in specs]
        (address,) = parse_worker_addresses(caching_worker)
        link = _WorkerLink(address, connect_timeout=10)
        link.connect()
        try:
            reply, _ = link.request({"op": "query_keys", "keys": keys})
            assert reply["ok"] and reply["hits"] == []
            with ExperimentEngine(
                backend="remote", remote_workers=caching_worker
            ) as eng:
                eng.run_cells(specs)
            reply, _ = link.request({"op": "query_keys", "keys": keys})
            assert sorted(reply["hits"]) == sorted(keys)
        finally:
            link.close()

    def test_mismatched_client_key_is_not_persisted(self, caching_worker):
        """The worker refuses to store a computed cell under a
        client-sent key that is not the spec's content key -- one
        buggy or hostile client must not poison the shared store."""
        from repro.engine.backends.remote import (
            _WorkerLink,
            parse_worker_addresses,
        )

        spec = benchmark_specs("radix", "decode", "synts")[0]
        bogus = "ab" + "0" * 62
        (address,) = parse_worker_addresses(caching_worker)
        link = _WorkerLink(address, connect_timeout=10)
        link.connect()
        try:
            reply, _ = link.request(
                {
                    "op": "run_batches",
                    "shard": 0,
                    "batches": [
                        {"keys": [bogus], "specs": [[0, spec.to_payload()]]}
                    ],
                }
            )
            # the requester still gets its computed result...
            assert reply["ok"] and reply["batches"][0][0]["spec"]
            # ...but nothing was stored, under either key
            reply, _ = link.request(
                {"op": "query_keys", "keys": [bogus, spec.key()]}
            )
            assert reply["hits"] == []
        finally:
            link.close()

    def test_promised_hit_vanishing_falls_back_to_full_specs(
        self, caching_worker, tmp_path
    ):
        """Clearing the worker store between the phases triggers the
        cache_miss fallback; the run still succeeds bit-identically."""
        from repro.engine.backends.remote import RemoteBackend

        specs = list(benchmark_specs("radix", "decode", "synts"))
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(
            backend="remote", remote_workers=caching_worker
        ) as eng:
            eng.run_cells(specs)  # warm the worker store

        backend = RemoteBackend(caching_worker)
        original = backend._request_shard

        def clear_between_phases(link, shard, members, batches):
            # simulate a concurrent `repro cache clear` on the worker
            # by wiping its store between query_keys and run_batches
            from repro.engine.store import JsonDirStore

            hits_probe = link.request(
                {
                    "op": "query_keys",
                    "keys": [k for i in members for k in batches[i].keys],
                }
            )[0]
            assert hits_probe["hits"], "worker store should be warm"
            JsonDirStore(tmp_path / "wstore").clear()
            return original(link, shard, members, batches)

        backend._request_shard = clear_between_phases
        with ExperimentEngine(backend=backend) as eng:
            assert eng.run_cells(specs) == reference


class TestWorkerCLI:
    def test_worker_help_exits_zero(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as err:
            main(["worker", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--serve" in out and "--bootstrap" in out
        assert "--cache-dir" in out and "--token" in out

    def test_engine_flags_before_worker_subcommand_survive(self):
        """`repro --token S --cache-dir D worker ...` must not lose
        the flags to the subparser's defaults -- a worker the operator
        believes is token-protected must actually get the token."""
        from repro.__main__ import _build_parser, _normalize_argv
        from repro.experiments import EXPERIMENTS
        from repro.experiments.ablations import ABLATIONS

        parser = _build_parser(EXPERIMENTS, ABLATIONS)
        args = parser.parse_args(
            _normalize_argv(
                [
                    "--token",
                    "sesame",
                    "--cache-dir",
                    "/tmp/w",
                    "worker",
                    "--serve",
                    "127.0.0.1:1",
                ],
                EXPERIMENTS,
            )
        )
        assert getattr(args, "token", None) == "sesame"
        assert getattr(args, "cache_dir", None) == "/tmp/w"

    def test_worker_bad_serve_address(self, capsys):
        from repro.__main__ import main

        assert main(["worker", "--serve", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_cli_run_over_loopback_workers(self, capsys, loopback_workers):
        """`python -m repro fig_4_7 --backend remote --workers ...`."""
        from repro.__main__ import main

        code = main(
            [
                "fig_4_7",
                "--backend",
                "remote",
                "--workers",
                ",".join(loopback_workers),
            ]
        )
        assert code == 0
        assert "sampling" in capsys.readouterr().out.lower()

    def test_cli_remote_without_workers_is_actionable(self, capsys):
        from repro.__main__ import main

        assert main(["fig_4_7", "--backend", "remote"]) == 2
        assert "--workers" in capsys.readouterr().err
