"""Shared experiment infrastructure.

Every table/figure of the paper's evaluation has a driver module with
a ``run(...) -> ExperimentResult``.  The result carries the same rows
or series the paper reports plus paper-vs-measured notes, and renders
to plain text (tables + ASCII plots).  ``perfbench/`` times each
one end to end.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.plots import ascii_bars, ascii_scatter
from repro.analysis.report import Series, format_kv, format_table
from repro.serialization import JsonFragment, canonical_json, sanitize

__all__ = [
    "ExperimentResult",
    "REPORTED_BENCHMARKS",
    "STAGES",
    "cached_experiment",
    "registries_fragment",
    "reported_benchmarks",
]


def reported_benchmarks() -> Tuple[str, ...]:
    """The benchmarks the result figures enumerate *right now*.

    Delegates to the workload registry: the paper's seven
    heterogeneous SPLASH-2 programs plus anything registered with
    ``reported=True`` (e.g. a synthetic scenario), in registration
    order.  Drivers that call this instead of the static
    :data:`REPORTED_BENCHMARKS` pick registered workloads up with no
    code change.
    """
    from repro.workloads.registry import reported_benchmarks as _reported

    return _reported()


#: ``((scheme version, workload version), fragment)`` of the last
#: :func:`registries_fragment` call.
_registries_memo: Optional[Tuple[Tuple[int, int], JsonFragment]] = None


def registries_fragment() -> JsonFragment:
    """The scheme and workload fingerprints as one pre-encoded key part.

    Every experiment key carries the registered scheme/workload
    *content*: registering a synthetic workload, adding a scheme, or
    re-registering a name with different parameters must invalidate
    memoised figures instead of serving results computed over
    yesterday's benchmark list.  The canonical JSON of both
    fingerprints is built once per pair of registry versions and
    spliced into each key verbatim, so the key is byte-identical to
    one built from the plain fingerprints.
    """
    global _registries_memo
    from repro.core.schemes import SCHEME_REGISTRY
    from repro.workloads.registry import WORKLOAD_REGISTRY

    versions = (SCHEME_REGISTRY.version, WORKLOAD_REGISTRY.version)
    memo = _registries_memo
    if memo is None or memo[0] != versions:
        registries = (
            [list(entry) for entry in SCHEME_REGISTRY.fingerprint()],
            [[name, digest] for name, digest in WORKLOAD_REGISTRY.fingerprint()],
        )
        memo = (versions, JsonFragment(canonical_json(registries)))
        _registries_memo = memo
    return memo[1]


def cached_experiment(exp_id: str):
    """Route a driver function through the session engine.

    The wrapped function gains (or keeps) an optional ``engine=``
    keyword; its result is memoised under a content key built from
    ``exp_id`` and the call arguments (which must therefore be
    JSON-serialisable primitives -- ``engine`` never participates in
    the key).  Functions that declare an ``engine`` parameter receive
    the resolved engine, so cell-submitting drivers share the same
    memoisation idiom as pure ones.  With an engine ``cache_dir``, a
    warm rerun skips the computation entirely.
    """

    def decorate(fn):
        signature = inspect.signature(fn)
        forwards_engine = "engine" in signature.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro.engine import get_engine

            # an engine may arrive as a keyword (any driver) or bound
            # to the function's own ``engine`` parameter (positional)
            explicit_engine = kwargs.pop("engine", None)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            eng = (
                explicit_engine
                or bound.arguments.get("engine")
                or get_engine()
            )
            # bind defaults into the key: run(x) and run(value=x) hash
            # alike, and changing a default invalidates stale on-disk
            # entries instead of silently serving them
            arguments = sorted(
                (name, value)
                for name, value in bound.arguments.items()
                if name != "engine"
            )
            # the registered scheme/workload content participates too
            key = (exp_id, fn.__qualname__, arguments, registries_fragment())
            if forwards_engine:
                bound.arguments["engine"] = eng
            return eng.experiment(
                key, lambda: fn(*bound.args, **bound.kwargs)
            )

        return wrapper

    return decorate

#: The seven SPLASH-2 benchmarks the paper reports (Section 5.4).
REPORTED_BENCHMARKS: Tuple[str, ...] = (
    "barnes",
    "cholesky",
    "fmm",
    "lu_contig",
    "lu_ncontig",
    "radix",
    "raytrace",
)

#: The three analysed pipe stages.
STAGES: Tuple[str, ...] = ("decode", "simple_alu", "complex_alu")


@dataclass
class ExperimentResult:
    """Uniform container for a regenerated table/figure.

    Attributes
    ----------
    experiment_id:
        Paper reference, e.g. ``"table_5_1"`` or ``"fig_6_18"``.
    title:
        The caption-level description.
    headers / rows:
        Tabular payload (may be empty for pure-series figures).
    series:
        Curve payload (may be empty for pure tables).
    notes:
        Paper-vs-measured key facts, rendered as a key/value block.
    plot:
        When true, ``render`` appends an ASCII scatter of the series.
    """

    experiment_id: str
    title: str
    headers: Sequence[str] = field(default_factory=list)
    rows: Sequence[Sequence[object]] = field(default_factory=list)
    series: Sequence[Series] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    plot: bool = True

    def render(self) -> str:
        parts: List[str] = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.series and self.plot:
            parts.append(ascii_scatter(list(self.series)))
        if self.notes:
            parts.append(format_kv(self.notes))
        return "\n\n".join(parts)

    # ------------------------------------------------------------------
    # engine cache codec (content-addressed JSON round trip)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Plain-JSON image for the engine's result cache."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": sanitize(list(self.headers)),
            "rows": sanitize([list(r) for r in self.rows]),
            "series": [
                {
                    "label": s.label,
                    "x": sanitize(list(s.x)),
                    "y": sanitize(list(s.y)),
                }
                for s in self.series
            ],
            "notes": sanitize(dict(self.notes)),
            "plot": self.plot,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[tuple(r) for r in payload["rows"]],
            series=[
                Series(
                    label=s["label"], x=tuple(s["x"]), y=tuple(s["y"])
                )
                for s in payload["series"]
            ],
            notes=dict(payload["notes"]),
            plot=payload["plot"],
        )
