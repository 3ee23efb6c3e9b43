"""Session management: the process-wide default engine.

Drivers resolve their engine with :func:`get_engine` so that plain
calls (tests, ``python -m repro.experiments.fig_6_18``) share one
in-memory cache per process -- any cell two figures have in common is
computed exactly once per session -- while the CLI and the benchmark
harness scope an explicitly configured engine with
:func:`engine_session`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .executor import ExperimentEngine

__all__ = ["get_engine", "set_engine", "engine_session"]

_default_engine: Optional[ExperimentEngine] = None


def get_engine() -> ExperimentEngine:
    """The session's current engine (created on first use)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


def set_engine(
    engine: Optional[ExperimentEngine],
) -> Optional[ExperimentEngine]:
    """Replace the session engine (``None`` resets to lazy default).

    Returns the engine it replaced (``None`` if none was created yet),
    so a caller can put it back.
    """
    global _default_engine
    previous, _default_engine = _default_engine, engine
    return previous


@contextmanager
def engine_session(
    engine: Optional[ExperimentEngine] = None,
) -> Iterator[ExperimentEngine]:
    """Scope ``engine`` (a fresh serial one if ``None``) as the default.

    The previous engine is restored on exit; the scoped engine's
    remote connections are closed.
    """
    if engine is None:
        engine = ExperimentEngine()
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
        engine.close()
