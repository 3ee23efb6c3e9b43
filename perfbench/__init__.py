"""End-to-end and per-layer benchmark of ``python -m repro``.

See ``perfbench/README.md`` for the workloads, the metrics and how to
run it.
"""
