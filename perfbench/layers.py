"""The traced run's layer boundaries: spans around ``repro`` functions.

:func:`install` replaces public functions and methods of each layer
with :meth:`~perfbench.tracer.Tracer.wrap` versions, at run time and
only inside the traced child process; no file under ``src/`` changes.
Module-level functions are rebound in every ``repro`` module that
imported them by name, so callers reach the traced version whichever
way they imported it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from typing import Callable, Iterator

from perfbench.tracer import Tracer

__all__ = ["finish", "install"]


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global naming ``original`` elsewhere."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions so their calls record spans."""
    import repro.circuit.ring_oscillator as ring
    import repro.circuit.spice as spice
    import repro.core.runner as runner
    import repro.engine.backends.remote as remote
    import repro.engine.cells as cells
    import repro.workloads.registry as registry
    from repro.core.schemes import Scheme
    from repro.engine.backends.base import ExecutorBackend
    from repro.engine.cache import ResultCache
    from repro.engine.executor import ExperimentEngine
    from repro.engine.store.base import ResultStore
    from repro.engine.store.jsondir import JsonDirStore
    from repro.experiments.common import ExperimentResult

    count = tracer.count
    wrap = tracer.wrap

    # engine: cell fan-out and whole-experiment memoisation
    def cells_asked(result, args, kwargs):
        specs = args[1]
        count("engine.cells_requested", len(specs))
        count("engine.cells_unique", len(set(specs)))

    ExperimentEngine.run_cells = wrap(
        ExperimentEngine.run_cells, "engine.run_cells", cells_asked
    )
    experiment = ExperimentEngine.experiment

    @functools.wraps(experiment)
    def traced_experiment(self, key_parts, thunk):
        # the thunk is the driver's own body: a child span, so the
        # experiment layer's self time is keying, store and codec only
        def body():
            with tracer.span("driver.body"):
                return thunk()

        count("engine.experiment_calls")
        with tracer.span("engine.experiment"):
            return experiment(self, key_parts, body)

    ExperimentEngine.experiment = traced_experiment

    # cells: keying, grouping, batch evaluation, problem construction
    cells.CellSpec.key = wrap(cells.CellSpec.key, "cells.key")
    _rebind(cells.group_cells, wrap(cells.group_cells, "cells.group"))

    def batched(result, args, kwargs):
        count("cells.batched_cells", len(args[0]))

    _rebind(
        cells.compute_batch,
        wrap(cells.compute_batch, "cells.batch", batched),
    )
    _rebind(
        runner.interval_problems,
        wrap(runner.interval_problems, "cells.construct"),
    )
    _rebind(
        registry.build_benchmark,
        wrap(registry.build_benchmark, "workloads.build"),
    )

    # solvers, one span name per scheme
    def solve_name(args) -> str:
        return f"core.solve.{args[0].name}"

    Scheme.evaluate = wrap(Scheme.evaluate, solve_name)
    Scheme.evaluate_batch = wrap(Scheme.evaluate_batch, solve_name)

    # result store: the outermost get/put of the configured stack
    def got(result, args, kwargs):
        if result is not None:
            count("store.hits")

    for cls in (ResultCache, ResultStore):
        cls.get = wrap(cls.get, "store.get", got)
        cls.put = wrap(cls.put, "store.put")
    disk_get = JsonDirStore._get

    def read_entry(self, key):
        payload = disk_get(self, key)
        if payload is not None:
            count("store.bytes_read", os.path.getsize(self._path(key)))
        return payload

    JsonDirStore._get = read_entry

    # backends and the remote wire
    for cls in set(_subclasses(ExecutorBackend)):
        if "run_batches" in vars(cls):
            cls.run_batches = wrap(
                vars(cls)["run_batches"], "backend.run_batches"
            )
    header = remote._HEADER.size
    encode = remote.canonical_json

    def encode_frame(obj):
        text = encode(obj)
        # json.dumps escapes non-ASCII, so one character is one byte
        count("remote.bytes_out", len(text) + header)
        return text

    remote.canonical_json = encode_frame
    remote.send_frame = wrap(
        remote.send_frame,
        "remote.send",
        lambda result, args, kwargs: count("remote.frames_out"),
    )

    def frame_in(result, args, kwargs):
        if result is not None:
            count("remote.frames_in")

    remote.recv_frame = wrap(remote.recv_frame, "remote.recv", frame_in)
    read_exact = remote._recv_exact

    def recv_exact(sock, n):
        data = read_exact(sock, n)
        if data:
            count("remote.bytes_in", len(data))
        return data

    remote._recv_exact = recv_exact

    # circuit: the Table 5.1 transient simulation
    sim_signature = inspect.signature(spice.simulate_inverter_ring)

    def stepped(result, args, kwargs):
        bound = sim_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        count(
            "circuit.steps",
            int(bound.arguments["t_stop"] / bound.arguments["dt"]),
        )

    _rebind(
        spice.simulate_inverter_ring,
        wrap(spice.simulate_inverter_ring, "circuit.sim", stepped),
    )
    _rebind(
        ring.sweep_ring_oscillator,
        wrap(ring.sweep_ring_oscillator, "circuit.sweep"),
    )

    # analysis: rendering the text figures
    ExperimentResult.render = wrap(ExperimentResult.render, "analysis.render")


def finish(tracer: Tracer, engine) -> None:
    """Record the counters that are only known once the run is over."""
    from repro.engine.cells import _interval_problems

    memo = _interval_problems.cache_info()
    tracer.count("cells.memo_hits", memo.hits)
    tracer.count("cells.memo_misses", memo.misses)
    tracer.count("engine.cells_computed", engine.cells_computed)
    tracer.count("engine.experiments_computed", engine.experiments_computed)
