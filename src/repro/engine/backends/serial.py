"""The deterministic reference backend: one batch at a time, in order."""

from __future__ import annotations

from .base import ExecutorBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutorBackend):
    """The in-process, in-order reference backend.

    Every other backend must match its output bit for bit.  It runs
    the base class's in-order ``run_batches``: the serial reference
    semantics *are* the default.
    """

    name = "serial"
