"""In-memory span tracer and the per-layer metrics derived from it.

A :class:`Tracer` records spans -- name, start, end, parent span and
run id -- kept in memory and written as JSON when the run ends.
:func:`layer_metrics` turns a run's spans and counters into the
per-layer metrics that ``perfbench/README.md`` lists.

Spans opened in helper threads (the remote backend's per-worker drain
threads) take as parent whatever span the main thread has open, so a
layer's self time -- its duration minus the part of it that child
spans cover, overlaps counted once -- stays meaningful under
concurrency.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Union,
)

__all__ = [
    "Span",
    "Tracer",
    "bracket",
    "covered_time",
    "layer_metrics",
    "select",
    "self_times",
]


class Span(NamedTuple):
    """One finished span, as written to the trace file."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """Collects spans and counters for one run, thread-safely."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[id, name, start, end, parent, run]`` rows, in opening order
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Start a span under the innermost open one; return its row."""
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            row = [
                len(self.spans),
                name,
                time.perf_counter(),
                None,
                parent,
                self.run_id,
            ]
            self.spans.append(row)
        stack.append(row[0])
        return row

    def close(self, row: list) -> None:
        """End the span ``row`` (the innermost open one of this thread)."""
        row[3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Context manager form of :meth:`open` / :meth:`close`."""
        row = self.open(name)
        try:
            yield row
        finally:
            self.close(row)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self.counters[name] += value

    def export(self) -> Dict[str, object]:
        """JSON-ready image of the run: spans and counters."""
        return {
            "run": self.run_id,
            "spans": [list(row) for row in self.spans],
            "counters": dict(self.counters),
        }

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[[tuple], str]],
        after: Optional[Callable[[object, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is the span name, or a function of the call's
        positional arguments that returns it.  ``after(result, args,
        kwargs)`` runs when a recorded call returns, to add counts.  A
        call made directly inside a span of the same name -- a tiered
        store asking its tiers, a batch solve falling back to
        per-interval solves -- is the same unit of work and is not
        recorded again.
        """
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            stack = stack_of()
            if stack and spans[stack[-1]][1] == label:
                return fn(*args, **kwargs)
            row = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(row)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def covered_time(span: Span, children: Iterable[Span]) -> float:
    """Length of the part of ``span`` that ``children`` cover.

    Children are clipped to the span, and overlapping children (spans
    of concurrent threads) are counted once.
    """
    edges = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    total = 0.0
    run_start = run_end = None
    for start, end in edges:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: (span.end - span.start)
        - covered_time(span, children[span.id])
        for span in spans
    }


def _outermost(spans: List[Span]) -> List[Span]:
    """Spans with no ancestor of the same name (no double counting)."""
    by_id = {span.id: span for span in spans}
    kept = []
    for span in spans:
        parent = span.parent
        while parent is not None and by_id[parent].name != span.name:
            parent = by_id[parent].parent
        if parent is None:
            kept.append(span)
    return kept


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Metric families with one member per experiment id or scheme; a
#: member the run never reached reads 0.
FAMILIES = ("experiments.", "core.solve_s.", "core.solve_calls.")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    trace: Dict[str, object], wall_s: float, untraced_wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``wall_s`` is the traced run's wall time measured from outside the
    process and ``untraced_wall_s`` the median of the untraced runs
    beside it.  Times are inclusive (the outermost span of a name,
    children included), except ``engine.run_cells_s`` and
    ``engine.experiment_s``, which are self times.
    """
    spans = [Span(*row) for row in trace["spans"]]
    counters: Dict[str, float] = defaultdict(float, trace["counters"])
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in _outermost(spans):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
    own: Dict[str, float] = defaultdict(float)
    names = {span.id: span.name for span in spans}
    for span_id, seconds in self_times(spans).items():
        own[names[span_id]] += seconds
    top_level = sum(s.end - s.start for s in spans if s.parent is None)

    requested = counters["engine.cells_requested"]
    unique = counters["engine.cells_unique"]
    memo_hits = counters["cells.memo_hits"]
    metrics = {
        "cli.import_s": total["cli.import"],
        "engine.run_cells_s": own["engine.run_cells"],
        "engine.cells_requested": requested,
        "engine.cells_unique": unique,
        "engine.cells_computed": counters["engine.cells_computed"],
        "engine.dedup_ratio": _ratio(unique, requested),
        "engine.experiment_s": own["engine.experiment"],
        "engine.experiments_cached": (
            counters["engine.experiment_calls"]
            - counters["engine.experiments_computed"]
        ),
        "cells.key_s": total["cells.key"],
        "cells.key_calls": calls["cells.key"],
        "cells.group_s": total["cells.group"],
        "cells.batch_s": total["cells.batch"],
        "cells.batches": calls["cells.batch"],
        "cells.cells_per_batch": _ratio(
            counters["cells.batched_cells"], calls["cells.batch"]
        ),
        "cells.problem_memo_hit_ratio": _ratio(
            memo_hits, memo_hits + counters["cells.memo_misses"]
        ),
        "cells.construct_s": total["cells.construct"],
        "workloads.build_s": total["workloads.build"],
        "store.get_s": total["store.get"],
        "store.get_calls": calls["store.get"],
        "store.hit_ratio": _ratio(counters["store.hits"], calls["store.get"]),
        "store.put_s": total["store.put"],
        "store.put_calls": calls["store.put"],
        "store.bytes_read": counters["store.bytes_read"],
        "backend.run_batches_s": total["backend.run_batches"],
        "remote.frames_out": counters["remote.frames_out"],
        "remote.frames_in": counters["remote.frames_in"],
        "remote.bytes_out": counters["remote.bytes_out"],
        "remote.bytes_in": counters["remote.bytes_in"],
        "remote.recv_wait_s": total["remote.recv"],
        "circuit.sweep_s": total["circuit.sweep"],
        "circuit.sim_calls": calls["circuit.sim"],
        "circuit.sim_s": total["circuit.sim"],
        "circuit.steps": counters["circuit.steps"],
        "analysis.render_s": total["analysis.render"],
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.top_level_coverage": _ratio(top_level, wall_s),
    }
    for name in total:
        if name.startswith("experiments."):
            metrics[f"{name}_s"] = total[name]
        elif name.startswith("core.solve."):
            scheme = name[len("core.solve."):]
            metrics[f"core.solve_s.{scheme}"] = total[name]
            metrics[f"core.solve_calls.{scheme}"] = calls[name]
    return metrics


def bracket(
    trace: Dict[str, object], launched: float, exited: float
) -> Dict[str, object]:
    """``trace`` with the child's start-up and exit as top-level spans.

    ``launched`` and ``exited`` are ``time.perf_counter()`` readings
    of the parent process around the child's life; the child recorded
    when its start-up ended (``ready``) and its exit began (``done``)
    on the same monotonic clock.
    """
    spans = list(trace["spans"])
    run = trace["run"]
    spans.append([len(spans), "python.startup", launched, trace["ready"], None, run])
    spans.append([len(spans), "python.exit", trace["done"], exited, None, run])
    return {**trace, "spans": spans}


def select(
    metrics: Dict[str, float], names: Iterable[str]
) -> Dict[str, float]:
    """The named metrics; a family member the run never reached reads 0.

    Raises ``KeyError`` for a name that is neither computed nor a
    family member, so a misspelt metric cannot silently read 0.
    """
    chosen = {}
    for name in names:
        if name in metrics:
            chosen[name] = float(metrics[name])
        elif name.startswith(FAMILIES):
            chosen[name] = 0.0
        else:
            raise KeyError(f"no per-layer metric named {name!r}")
    return chosen
