"""Shared experiment infrastructure.

Every table/figure of the paper's evaluation is an :class:`Experiment`
declaration whose body, in a driver module, returns an
``ExperimentResult``.  The result carries the same rows or series the
paper reports plus paper-vs-measured notes, and renders to plain text
(tables + ASCII plots).  ``perfbench/`` times each one end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.plots import ascii_scatter
from repro.analysis.report import Series, format_kv, format_table
from repro.serialization import JsonFragment, canonical_json, sanitize

__all__ = [
    "Experiment",
    "ExperimentResult",
    "REQUIRED",
    "STAGES",
    "registries_fragment",
]


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
            [list(digest) for _, digest in SCHEME_REGISTRY.fingerprint()],
            [[name, digest] for name, digest in WORKLOAD_REGISTRY.fingerprint()],
        )
        memo = (versions, JsonFragment(canonical_json(registries)))
        _registries_memo = memo
    return memo[1]


class _Required:
    def __repr__(self) -> str:
        return "REQUIRED"


#: Declared in place of a default: the caller must pass the parameter.
REQUIRED = _Required()


class Experiment:
    """A memoised experiment: its key, its body's home and its defaults.

    Calling the declaration binds positional and keyword arguments over
    ``defaults`` (declaration order is positional order) and memoises
    the body's result in the session engine under the content key
    ``(exp_id, function, sorted arguments, registries_fragment())``.
    Binding the defaults makes ``run(x)`` and ``run(value=x)`` share a
    key, and changing a default invalidates stale on-disk entries.  The
    arguments must be JSON-serialisable primitives.

    The body is the function :meth:`define` decorated, named
    ``function``, in ``repro.experiments.<module>``.  Only a store miss
    imports that module, so a warm hit loads no driver code.  The body
    declares no defaults of its own: every default lives here, once.

    Any call may pass ``engine=``, which never enters the key: the call
    then runs with that engine installed as the session engine, and
    the previous one comes back afterwards.  A body reaches the engine
    only through :func:`repro.engine.get_engine`.
    """

    def __init__(
        self,
        exp_id: str,
        module: str,
        function: str,
        /,
        **defaults: object,
    ) -> None:
        self.exp_id = exp_id
        self.module = module
        self.function = function
        self.defaults = defaults
        self._body: Optional[Callable] = None

    def __repr__(self) -> str:
        return f"<experiment {self.exp_id}: {self.module}.{self.function}>"

    def with_defaults(self, **defaults: object) -> "Experiment":
        """The same experiment with some defaults replaced."""
        return Experiment(
            self.exp_id,
            self.module,
            self.function,
            **{**self.defaults, **defaults},
        )

    def define(self, body: Callable) -> "Experiment":
        """Decorator: make ``body`` this experiment's computation.

        Returns the declaration, so the driver module's name for the
        body is the memoised entry point.
        """
        if body.__name__ != self.function:
            raise ValueError(
                f"{self.exp_id} declares body {self.function!r}, "
                f"not {body.__name__!r}"
            )
        self._body = body
        return self

    @property
    def body(self) -> Callable:
        """The undecorated computation; imports its module on first use."""
        if self._body is None:
            module = import_module(f"{__package__}.{self.module}")
            self._body = getattr(module, self.function)._body
        return self._body

    def _bind(self, args: tuple, kwargs: dict) -> Dict[str, object]:
        """``defaults`` overridden by ``args`` and ``kwargs``."""
        names = list(self.defaults)
        if len(args) > len(names):
            raise TypeError(
                f"{self.function}() takes {len(names)} positional "
                f"arguments but {len(args)} were given"
            )
        positional = dict(zip(names, args))
        for name in kwargs:
            if name not in self.defaults:
                raise TypeError(
                    f"{self.function}() got an unexpected keyword argument {name!r}"
                )
            if name in positional:
                raise TypeError(
                    f"{self.function}() got multiple values for argument {name!r}"
                )
        arguments = {**self.defaults, **positional, **kwargs}
        missing = [name for name, value in arguments.items() if value is REQUIRED]
        if missing:
            raise TypeError(
                f"{self.function}() missing required argument {missing[0]!r}"
            )
        return arguments

    def __call__(self, *args, engine=None, **kwargs):
        from repro.engine import get_engine, set_engine

        arguments = self._bind(args, kwargs)
        # the registered scheme/workload content participates too
        key = (
            self.exp_id,
            self.function,
            sorted(arguments.items()),
            registries_fragment(),
        )
        engine = engine or get_engine()
        previous = set_engine(engine)
        try:
            return engine.experiment(key, lambda: self.body(**arguments))
        finally:
            set_engine(previous)


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
