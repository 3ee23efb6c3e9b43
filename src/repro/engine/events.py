"""Engine progress events: structured observability for long runs.

The engine and its executor backends emit :class:`EngineEvent`s at
every observable step -- batch submitted, cell served from cache, cell
computed (with wall time), shard started/finished, corrupt cache entry
skipped, experiment memo hit/computed.  Events are *observability
only*: no result ever depends on them, subscribers cannot change what
is computed, and an engine with no subscribers pays one ``if`` per
event.

Two ready-made subscribers back the CLI flags:

* :class:`ProgressPrinter` (``--progress``) -- human-readable one-line
  progress to stderr;
* :class:`JsonLinesPrinter` (``--log-json``) -- one JSON object per
  event, machine-readable structured logging.

Both write to streams, never to the result channel (stdout carries
rendered figures only).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = [
    "EngineEvent",
    "EventLog",
    "JsonLinesPrinter",
    "ProgressPrinter",
]

#: Subscriber signature: called synchronously with each event.
EventCallback = Callable[["EngineEvent"], None]


@dataclass(frozen=True)
class EngineEvent:
    """One engine observation.

    ``kind`` is a stable string (``batch_started``, ``cell_cached``,
    ``cell_computed``, ``shard_started``, ``shard_finished``,
    ``worker_lost``, ``cache_corrupt``, ``experiment_cached``,
    ``experiment_computed``, ``store_stats``, ``batch_finished``);
    ``data`` is a flat, JSON-friendly mapping of
    the observation's facts.  Events produced on a remote worker are
    forwarded into the client's stream with a ``worker`` field naming
    the ``host:port`` they came from.
    """

    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Read one fact from ``data`` (with a default, like ``dict.get``)."""
        return self.data.get(key, default)


class EventLog:
    """Collect events in memory (tests, programmatic inspection)."""

    def __init__(self) -> None:
        self.events: List[EngineEvent] = []

    def __call__(self, event: EngineEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[EngineEvent]:
        """The recorded events of one kind, in arrival order."""
        return [e for e in self.events if e.kind == kind]


def _cell_label(data: Dict[str, Any]) -> str:
    """``radix/decode/synts#0`` from a cell event's coordinates."""
    return (
        f"{data.get('benchmark')}/{data.get('stage')}/"
        f"{data.get('scheme')}#{data.get('interval')}"
    )


class ProgressPrinter:
    """Human-readable progress lines (the CLI's ``--progress``)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._done = 0
        self._pending = 0

    def _say(self, text: str) -> None:
        print(f"repro engine: {text}", file=self.stream, flush=True)

    def __call__(self, event: EngineEvent) -> None:
        kind, data = event.kind, event.data
        if kind == "batch_started":
            self._done = 0
            self._pending = data.get("n_pending", 0)
            self._say(
                f"{data.get('n_cells')} cells "
                f"({data.get('n_cached')} cached, "
                f"{self._pending} to compute) via {data.get('backend')}"
            )
        elif kind == "cell_computed":
            self._done += 1
            seconds = data.get("seconds")
            timing = f" ({seconds:.2f}s)" if seconds is not None else ""
            self._say(
                f"  [{self._done}/{self._pending}] "
                f"{_cell_label(data)}{timing}"
            )
        elif kind == "shard_started":
            where = (
                f" -> {data.get('worker')}" if data.get("worker") else ""
            )
            self._say(
                f" shard {data.get('shard')}/{data.get('n_shards')}: "
                f"{data.get('n_cells')} cells{where}"
            )
        elif kind == "shard_finished":
            self._say(
                f" shard {data.get('shard')}/{data.get('n_shards')} done "
                f"({data.get('seconds', 0.0):.2f}s)"
            )
        elif kind == "worker_lost":
            self._say(
                f"warning: remote worker {data.get('worker')} lost "
                f"({data.get('error')}); redistributing its shards"
            )
        elif kind == "batch_finished":
            self._say(
                f"batch done: {data.get('n_computed')} computed in "
                f"{data.get('seconds', 0.0):.2f}s"
            )
        elif kind == "cache_corrupt":
            self._say(
                f"warning: skipped corrupt cache entry {data.get('path')} "
                f"({data.get('error')})"
            )
        elif kind == "experiment_computed":
            self._say(f"experiment computed: {data.get('experiment')}")
        elif kind == "experiment_cached":
            self._say(f"experiment cache hit: {data.get('experiment')}")


class JsonLinesPrinter:
    """One JSON object per event (the CLI's ``--log-json``)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: EngineEvent) -> None:
        record = {"event": event.kind, **event.data}
        print(
            json.dumps(record, sort_keys=True, default=str),
            file=self.stream,
            flush=True,
        )
