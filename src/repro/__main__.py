"""Command-line entry point: regenerate published artifacts.

Usage::

    python -m repro list                 # experiments, schemes, workloads
    python -m repro --list-schemes       # scheme registry only
    python -m repro --list-benchmarks    # workload registry only
    python -m repro run fig_6_18         # regenerate one artifact
    python -m repro fig_6_18             # shorthand for 'run fig_6_18'
    python -m repro run all              # every figure and table
    python -m repro headline --progress  # stream engine progress
    python -m repro table_5_1 --cache-dir .repro-cache   # warm reruns
    python -m repro ablation heterogeneity
    python -m repro worker --serve 0.0.0.0:7700          # remote worker
    python -m repro worker --serve 0.0.0.0:7700 --token SECRET  # authed
    python -m repro fig_6_18 --workers host1:7700,host2:7700
    python -m repro cache info --cache-dir .repro-cache  # store maintenance
    python -m repro cache prune --older-than 7d --cache-dir .repro-cache

Every regeneration goes through the experiment engine:

* cells run serially in this process by default;
  ``--workers HOST:PORT[,...]`` ships them to remote worker
  processes (``python -m repro worker``) instead, with results
  bit-identical to the serial run; ``--token`` (or
  ``REPRO_WORKER_TOKEN``) is the workers' shared auth secret;
* ``--cache-dir DIR`` persists every figure to a content-addressed
  on-disk result store, so a repeated run skips the recomputation
  (cells are shared between figures within one run only);
  ``--store {memory,jsondir,tiered}`` picks the store layering
  (default: tiered memory+disk when a cache dir is given);
* ``--progress`` streams human-readable engine progress to stderr;
  ``--log-json`` streams one JSON event per line instead;
* ``--stats`` prints store hit/miss accounting (per tier), the
  backend (``serial`` or ``remote[N]``) and the cells computed and
  reused to stderr.

``REPRO_BOOTSTRAP=module:function`` names registration hooks that the
CLI and remote workers both run at start-up, so user
schemes/workloads resolve identically everywhere (see
``repro.engine.bootstrap``).

Importing this module caps OpenBLAS at one thread unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
is already set.  repro makes no BLAS call, yet numpy's and scipy's
bundled OpenBLAS each start a busy-waiting thread at import.  The cap
is set before anything can import numpy and is inherited by child
processes; a plain ``import repro`` leaves the environment alone.
"""

from __future__ import annotations

import os

if not any(
    v in os.environ
    for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import sys


def _print_result(result) -> None:
    # pareto_figs.run / fig_6_17.run return dicts of results
    if isinstance(result, dict):
        for item in result.values():
            print(item.render())
            print()
    else:
        print(result.render())


def _build_parser(experiments, ablations) -> argparse.ArgumentParser:
    from repro.engine.store import store_names

    # engine options are accepted both before and after the subcommand.
    # SUPPRESS defaults are load-bearing: the subparser shares these
    # actions via parents, and a plain default would clobber a value
    # the main parser already wrote into the namespace.
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--workers",
        metavar="HOST:PORT[,HOST:PORT...]",
        default=argparse.SUPPRESS,
        help="compute cells on these remote workers (each a 'python -m "
        "repro worker --serve' process) instead of in this process",
    )
    engine_opts.add_argument(
        "--token",
        default=argparse.SUPPRESS,
        metavar="SECRET",
        help="shared auth secret for --workers started with --token "
        "(default: the REPRO_WORKER_TOKEN env var)",
    )
    engine_opts.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="persist experiment results to an on-disk "
        "content-addressed store",
    )
    engine_opts.add_argument(
        "--store",
        choices=store_names(),
        default=argparse.SUPPRESS,
        help="result-store layering (default: tiered memory+disk when "
        "--cache-dir is given, else memory)",
    )
    engine_opts.add_argument(
        "--stats",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print cache statistics to stderr after the run",
    )
    engine_opts.add_argument(
        "--progress",
        action="store_true",
        default=argparse.SUPPRESS,
        help="stream human-readable engine progress to stderr",
    )
    engine_opts.add_argument(
        "--log-json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="stream engine events as JSON lines to stderr",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SynTS reproduction: regenerate the paper's tables "
        "and figures",
        parents=[engine_opts],
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print every registry (experiments, ablations, schemes, "
        "workloads) and exit",
    )
    parser.add_argument(
        "--list-schemes",
        action="store_true",
        help="print the scheme registry and exit",
    )
    parser.add_argument(
        "--list-benchmarks",
        action="store_true",
        help="print the workload registry and exit",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser(
        "list", help="list experiments, ablations, schemes and workloads"
    )
    run_p = sub.add_parser(
        "run",
        help="regenerate an experiment (or 'all')",
        parents=[engine_opts],
    )
    run_p.add_argument("experiment", help="experiment id from 'list', or 'all'")
    abl_p = sub.add_parser(
        "ablation",
        help="run an ablation study (or 'all')",
        parents=[engine_opts],
    )
    abl_p.add_argument("name", help="ablation id from 'list', or 'all'")
    worker_p = sub.add_parser(
        "worker",
        help="serve experiment cells to remote-backend clients",
        description="Run a long-lived worker process: binds HOST:PORT, "
        "runs the registry bootstrap (REPRO_BOOTSTRAP, then --bootstrap), "
        "prints 'repro worker: "
        "listening on HOST:PORT' to stdout once ready, then serves "
        "content-keyed shards from '--workers' clients until killed. "
        "Results are bit-identical to a local serial run.",
    )
    worker_p.add_argument(
        "--serve",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port)",
    )
    worker_p.add_argument(
        "--bootstrap",
        action="append",
        default=[],
        metavar="MODULE:FUNCTION",
        help="extra registration hook(s) to run at start-up, after "
        "REPRO_BOOTSTRAP (repeatable; a bare MODULE means importing "
        "it registers)",
    )
    # SUPPRESS, like the engine_opts parents: the name also exists on
    # the main parser, and a plain default would clobber a value given
    # before the subcommand (`repro --token S worker ...`)
    worker_p.add_argument(
        "--token",
        metavar="SECRET",
        default=argparse.SUPPRESS,
        help="require clients to authenticate with this shared secret "
        "(HMAC over a per-connection nonce; default: the "
        "REPRO_WORKER_TOKEN env var)",
    )
    cache_p = sub.add_parser(
        "cache",
        help="inspect or maintain a result store (info/prune/clear)",
        description="Operate on a configured result store: 'info' "
        "summarises entry counts and bytes per tier, 'prune "
        "--older-than AGE' drops entries older than e.g. 7d/12h/30m, "
        "'clear' removes every entry. The store defaults to the "
        "on-disk jsondir layer of --cache-dir; --store picks another "
        "store.",
    )
    cache_p.add_argument(
        "action",
        choices=("info", "prune", "clear"),
        help="maintenance operation",
    )
    cache_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help="store directory (required for disk-backed stores)",
    )
    cache_p.add_argument(
        "--store",
        choices=store_names(),
        default=argparse.SUPPRESS,
        help="store to operate on (default: jsondir over --cache-dir)",
    )
    cache_p.add_argument(
        "--older-than",
        metavar="AGE",
        help="prune threshold: seconds, or a number with a s/m/h/d "
        "suffix (e.g. 7d)",
    )
    return parser


def _parse_duration(text: str) -> float:
    """Seconds from ``AGE`` (plain seconds or s/m/h/d suffixed)."""
    import math

    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"invalid duration {text!r}; use seconds or a s/m/h/d "
            "suffix (e.g. 3600, 30m, 12h, 7d)"
        )
    if value < 0:
        raise ValueError(f"duration {text!r} must be non-negative")
    return value * scale


#: Engine flags that consume the next token (``--flag value`` form).
_VALUE_FLAGS = ("--cache-dir", "--workers", "--store", "--token")


def _normalize_argv(argv, experiments) -> list:
    """Allow ``python -m repro fig_6_18 --stats`` as run shorthand."""
    argv = list(argv)
    skip_value = False
    for i, token in enumerate(argv):
        if skip_value:
            skip_value = False
            continue
        if token.startswith("-"):
            # don't mistake a flag's value for the experiment token
            skip_value = token in _VALUE_FLAGS
            continue
        if token in ("list", "run", "ablation", "worker", "cache"):
            return argv
        if token in experiments or token == "all":
            return argv[:i] + ["run"] + argv[i:]
        return argv  # unknown id: let the parser report it
    return argv


def _print_registries(
    experiments, ablations, schemes: bool = True, workloads: bool = True
) -> None:
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.workloads.registry import WORKLOAD_REGISTRY

    if experiments is not None:
        print("experiments:")
        for name in experiments:
            print(f"  {name}")
        print("ablations:")
        for name in ablations:
            print(f"  {name}")
    if schemes:
        print("schemes:")
        for scheme in SCHEME_REGISTRY:
            tags = []
            if scheme.needs_rng:
                tags.append("rng")
            if not scheme.uses_theta:
                tags.append("theta-free")
            suffix = f" [{', '.join(tags)}]" if tags else ""
            print(f"  {scheme.name}{suffix}  {scheme.description}")
    if workloads:
        print("benchmarks:")
        for entry in WORKLOAD_REGISTRY:
            profile = entry.profile
            flag = "reported" if entry.reported else "excluded"
            print(
                f"  {entry.name}  [{flag}]  {profile.n_threads} threads, "
                f"{profile.n_intervals} intervals, "
                f"heterogeneity {profile.heterogeneity:.2f}x"
                f"  {entry.description}"
            )


def main(argv=None) -> int:
    from repro.engine import ExperimentEngine, engine_session
    from repro.experiments import EXPERIMENTS
    from repro.experiments.ablations import ABLATIONS

    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(EXPERIMENTS, ABLATIONS)
    args = parser.parse_args(_normalize_argv(argv, EXPERIMENTS))

    if args.command != "worker":
        # the client side of the bootstrap hook: listings, cell specs
        # and validation all see the same registry picture the remote
        # workers will (the worker path bootstraps itself, with
        # its --bootstrap extras)
        from repro.engine.bootstrap import run_bootstrap

        try:
            run_bootstrap()
        except RuntimeError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2

    if args.list or args.list_schemes or args.list_benchmarks:
        if args.command is not None:
            # refusing beats silently skipping the requested run
            parser.error(
                "--list/--list-schemes/--list-benchmarks cannot be "
                "combined with a command"
            )
        _print_registries(
            EXPERIMENTS if args.list else None,
            ABLATIONS if args.list else None,
            schemes=args.list or args.list_schemes,
            workloads=args.list or args.list_benchmarks,
        )
        return 0
    if args.command is None:
        parser.error("a command is required (try 'list')")
    if args.command == "list":
        _print_registries(EXPERIMENTS, ABLATIONS)
        return 0
    if args.command == "worker":
        return _serve_worker(args)
    if args.command == "cache":
        return _cache_command(args)

    stats = getattr(args, "stats", False)
    try:
        engine = ExperimentEngine(
            cache_dir=getattr(args, "cache_dir", None),
            remote_workers=getattr(args, "workers", None),
            store=getattr(args, "store", None),
            worker_token=getattr(args, "token", None),
        )
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    # the event printers load only when asked for: a run without
    # subscribers never imports repro.engine.events
    if getattr(args, "progress", False):
        from repro.engine.events import ProgressPrinter

        engine.subscribe(ProgressPrinter(sys.stderr))
    if getattr(args, "log_json", False):
        from repro.engine.events import JsonLinesPrinter

        engine.subscribe(JsonLinesPrinter(sys.stderr))
    reused = 0

    def _count_reused(event) -> None:
        nonlocal reused
        if event.kind == "batch_started":
            reused += event.get("n_cached", 0)

    if stats:
        engine.subscribe(_count_reused)
    with engine_session(engine=engine):
        try:
            code = _dispatch(args, EXPERIMENTS, ABLATIONS)
        except RuntimeError as exc:
            # e.g. remote workers missing a registration: an
            # actionable one-liner beats a traceback
            print(f"repro: {exc}", file=sys.stderr)
            code = 2
        if stats:
            print(
                f"cache: {engine.stats.as_dict()} "
                f"(backend={engine.backend.describe()})",
                file=sys.stderr,
            )
            print(
                f"cells: computed {engine.cells_computed}, "
                f"reused {reused} in this session",
                file=sys.stderr,
            )
            for tier in engine.store_stats():
                label = tier.pop("store", "?")
                print(f"store tier {label}: {tier}", file=sys.stderr)
    return code


def _serve_worker(args) -> int:
    """Run the ``repro worker`` subcommand until shut down."""
    from repro.engine.worker import serve

    # experiment-run options given before the subcommand would be
    # silently ignored: a worker keeps no store and runs no experiment
    ignored = [
        "--" + name.replace("_", "-")
        for name in ("workers", "cache_dir", "store", "stats", "progress",
                     "log_json")
        if hasattr(args, name)
    ]
    if ignored:
        print(
            f"repro worker: {', '.join(ignored)} configure experiment "
            "runs, not a worker (a worker keeps no result store)",
            file=sys.stderr,
        )
        return 2

    host, _, port_text = args.serve.rpartition(":")
    try:
        if not host:
            raise ValueError
        port = int(port_text)
        if not (0 <= port < 65536):
            raise ValueError
    except ValueError:
        print(
            f"repro: --serve expects HOST:PORT (port 0-65535), "
            f"got {args.serve!r}",
            file=sys.stderr,
        )
        return 2
    try:
        serve(
            host,
            port,
            bootstrap=args.bootstrap,
            token=getattr(args, "token", None),
        )
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        # e.g. a failing bootstrap hook or the port already bound
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def _cache_command(args) -> int:
    """Run the ``repro cache`` subcommand (info / prune / clear)."""
    from repro.engine.store import make_store

    cache_dir = getattr(args, "cache_dir", None)
    name = getattr(args, "store", None) or "jsondir"
    try:
        store = make_store(name, cache_dir=cache_dir)
    except (KeyError, ValueError) as exc:
        print(f"repro cache: {exc}", file=sys.stderr)
        return 2
    if args.action == "info":
        info = store.info()
        print(f"store: {info.pop('store')}")
        for tier in info.pop("tiers", ()):
            print(
                f"  tier {tier['store']}: {tier['entries']} entries, "
                f"{tier['bytes']} bytes"
            )
        for field, value in info.items():
            print(f"{field}: {value}")
        return 0
    if args.action == "prune":
        older_than = getattr(args, "older_than", None)
        if not older_than:
            print(
                "repro cache: prune needs --older-than AGE "
                "(e.g. 7d, 12h, 3600)",
                file=sys.stderr,
            )
            return 2
        try:
            seconds = _parse_duration(older_than)
        except ValueError as exc:
            print(f"repro cache: {exc}", file=sys.stderr)
            return 2
        removed = store.prune(seconds)
        print(f"pruned {removed} entries older than {older_than}")
        return 0
    if args.action == "clear":
        before = sum(1 for _ in store.entries())
        store.clear()
        print(f"cleared {before} entries")
        return 0
    return 2  # pragma: no cover


def _dispatch(args, experiments, ablations) -> int:
    if args.command == "run":
        if args.experiment == "all":
            for name, fn in experiments.items():
                _print_result(fn())
                print()
            return 0
        if args.experiment not in experiments:
            print(
                f"unknown experiment {args.experiment!r}; try 'list'",
                file=sys.stderr,
            )
            return 2
        _print_result(experiments[args.experiment]())
        return 0
    if args.command == "ablation":
        if args.name == "all":
            for fn in ablations.values():
                _print_result(fn())
                print()
            return 0
        if args.name not in ablations:
            print(f"unknown ablation {args.name!r}; try 'list'", file=sys.stderr)
            return 2
        _print_result(ablations[args.name]())
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
