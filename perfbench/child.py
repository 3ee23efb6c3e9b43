"""One regeneration in a fresh process: the benchmark's timed client.

``perfbench/run.py`` starts this once per run.  It does what
``python -m repro run ...`` does -- import the CLI, run the registry
bootstrap, open one engine session, call each driver and print its
rendering to stdout -- for one of two driver sets:

* ``table51``: ``table_5_1``;
* ``figures``: every ``EXPERIMENTS`` driver except ``table_5_1``, then
  every ``ABLATIONS`` driver (``run all`` without Table 5.1, then
  ``ablation all``).

It then writes the sha256 of each result's canonical ``to_payload()``
JSON to ``--out``.  With ``--trace`` it first wraps each layer's
public functions (:mod:`perfbench.layers`) and adds the run's spans
and counters to the same file, with the ``time.perf_counter()``
readings (one clock for every process on the machine) at which its
start-up ended and its exit began.  By hand, from the repository root::

    PYTHONPATH=src:. python3 perfbench/child.py --set figures --seed 0 \\
        --out /tmp/digests.json > /dev/null
"""

import argparse
import functools
import json
import os
import time
from contextlib import nullcontext

from perfbench.checks import result_digests
from perfbench.inputs import driver_kwargs


def driver_plan(drivers: str, seed: int, experiments, ablations) -> list:
    """``(experiment id, zero-argument call)`` pairs, in run order."""
    if drivers == "table51":
        return [("table_5_1", experiments["table_5_1"])]
    calls = [
        (exp_id, fn)
        for exp_id, fn in experiments.items()
        if exp_id != "table_5_1"
    ]
    calls += [(f"ablation_{name}", fn) for name, fn in ablations.items()]
    kwargs = driver_kwargs(seed)
    return [
        (exp_id, functools.partial(fn, **kwargs.get(exp_id, {})))
        for exp_id, fn in calls
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=("table51", "figures"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--workers", help="HOST:PORT,... of remote workers")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer(run_id=f"{args.set}-{args.seed}-{os.getpid()}")
    # start-up ends here; run.py times it from the process launch
    ready = time.perf_counter()

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span("cli.import"):
        import repro.__main__ as cli
        from repro.engine import ExperimentEngine, set_engine
        from repro.engine.bootstrap import run_bootstrap
        from repro.experiments import EXPERIMENTS
        from repro.experiments.ablations import ABLATIONS
    if tracer is not None:
        from perfbench.layers import install

        with span("trace.install"):
            install(tracer)
    with span("cli.bootstrap"):
        run_bootstrap()
    with span("engine.open"):
        engine = ExperimentEngine(
            cache_dir=args.cache_dir, remote_workers=args.workers
        )
        set_engine(engine)
    results = []
    try:
        for exp_id, call in driver_plan(
            args.set, args.seed, EXPERIMENTS, ABLATIONS
        ):
            with span(f"experiments.{exp_id}"):
                result = call()
            with span("render"):
                cli._print_result(result)
                print()
            results.append((exp_id, result))
    finally:
        with span("engine.close"):
            set_engine(None)
            engine.close()
    with span("check.hash"):
        record = {"digests": result_digests(results)}
    if tracer is not None:
        from perfbench.layers import finish

        # exit (this export included) ends when run.py sees the exit
        done = time.perf_counter()
        finish(tracer, engine)
        record["trace"] = {**tracer.export(), "ready": ready, "done": done}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
