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


def set_engine(engine: Optional[ExperimentEngine]) -> None:
    """Replace the session engine (``None`` resets to lazy default)."""
    global _default_engine
    _default_engine = engine


@contextmanager
def engine_session(
    cache_dir: Optional[str] = None,
    engine: Optional[ExperimentEngine] = None,
    remote_workers: Optional[str] = None,
    worker_token: Optional[str] = None,
) -> Iterator[ExperimentEngine]:
    """Scope a configured (or prebuilt) engine as the session default.

    The previous engine is restored on exit; the scoped engine's
    remote connections are closed.  ``worker_token`` is the remote
    backend's shared-secret auth token.
    """
    if engine is None:
        engine = ExperimentEngine(
            cache_dir=cache_dir,
            remote_workers=remote_workers,
            worker_token=worker_token,
        )
    elif any(
        opt is not None for opt in (cache_dir, remote_workers, worker_token)
    ):
        raise ValueError("pass either a prebuilt engine or its options")
    previous = _default_engine
    set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
        engine.close()
