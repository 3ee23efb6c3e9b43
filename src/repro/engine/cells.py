"""Experiment cells: the engine's unit of work.

Every evaluation-figure computation decomposes into *cells*: one
(benchmark, stage, scheme, barrier-interval) sub-problem, optionally
pinned to an explicit ``theta`` (Pareto sweeps) or carrying online
knobs (seed, sampling budget) and platform overrides (ablations).

A :class:`CellSpec` is pure data -- canonically JSON-serialisable for
content-hash cache keys and for the remote wire -- and
:func:`compute_batch` is a module-level pure function of its cells,
so a cell computes to the same :class:`CellResult` in any process, in
any batch, in any order.  That property is what lets the executor
promise bit-identical results for serial and parallel runs, and lets
figures share cells through the cache (e.g. ``headline`` reuses the
offline totals ``fig_6_18`` already computed).

Online cells derive their RNG stream from the spec itself (stable
content hash), never from shared mutable state, so online results are
also independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import SCHEME_REGISTRY
from repro.serialization import content_key
from repro.workloads.registry import WORKLOAD_REGISTRY

if TYPE_CHECKING:
    # problem construction (and numpy) loads only when a cell computes
    from repro.core.problem import SynTSProblem

__all__ = [
    "CellSpec",
    "CellResult",
    "CellBatch",
    "BenchmarkTotals",
    "benchmark_specs",
    "cached_interval_problems",
    "cell_seed",
    "compute_batch",
    "group_cells",
    "totalize",
]


@dataclass(frozen=True)
class CellSpec:
    """One (benchmark, stage, scheme, interval) sub-problem.

    Attributes
    ----------
    benchmark / stage / scheme / interval:
        The cell coordinates.  ``scheme`` names an entry of
        :data:`repro.core.schemes.SCHEME_REGISTRY`; ``interval``
        indexes the benchmark's barrier intervals.
    theta:
        Explicit Eq. 4.4 weight; ``None`` selects the benchmark's
        equal-weight theta (the Fig. 6.18 convention), resolved from
        interval 0 under the cell's platform overrides.
    seed / n_samp / sampling_fraction:
        Online-controller knobs (refused by offline schemes; set one
        budget).  The actual RNG stream is :func:`cell_seed`, derived
        from the whole spec, so two cells never share a stream.
    c_penalty / leakage / n_voltages:
        Platform overrides for ablation cells; ``None`` keeps the
        paper's defaults.
    """

    benchmark: str
    stage: str
    scheme: str
    interval: int = 0
    theta: Optional[float] = None
    seed: Optional[int] = None
    n_samp: Optional[int] = None
    sampling_fraction: Optional[float] = None
    c_penalty: Optional[float] = None
    leakage: Optional[float] = None
    n_voltages: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEME_REGISTRY:
            raise ValueError(SCHEME_REGISTRY.unknown_message(self.scheme))
        if self.interval < 0:
            raise ValueError("interval must be non-negative")
        if self.n_voltages is not None and self.n_voltages < 1:
            raise ValueError(f"n_voltages must be at least 1, got {self.n_voltages}")
        # a knob the computation ignores would still move the key
        if self.n_samp is not None and self.sampling_fraction is not None:
            raise ValueError("n_samp overrides sampling_fraction: set one")
        for name in ("seed", "n_samp", "sampling_fraction"):
            if getattr(self, name) is not None and not (
                SCHEME_REGISTRY.get(self.scheme).needs_rng
            ):
                raise ValueError(f"scheme {self.scheme!r} ignores {name}")

    def to_payload(self) -> Dict[str, object]:
        """Plain-dict image of the spec (cache/wire codec)."""
        return {
            "benchmark": self.benchmark,
            "stage": self.stage,
            "scheme": self.scheme,
            "interval": self.interval,
            "theta": self.theta,
            "seed": self.seed,
            "n_samp": self.n_samp,
            "sampling_fraction": self.sampling_fraction,
            "c_penalty": self.c_penalty,
            "leakage": self.leakage,
            "n_voltages": self.n_voltages,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(**payload)

    def key(self) -> str:
        """Content-hash cache key of this cell.

        The key mixes in the *content* of the registered workload and
        scheme the cell names (profile constants, stage shapes, solver
        identity), not just their names: re-registering a name with
        different parameters yields different keys, so stale cached
        results are structurally unreachable in the session memo.
        The registry digests enter as their memoised canonical-JSON
        strings (recomputed only when an entry is re-registered), so
        keying a cell costs one small payload walk, not a recursive
        profile serialisation.
        """
        return content_key(
            "cell",
            self.to_payload(),
            WORKLOAD_REGISTRY.get(self.benchmark).digest_json,
            SCHEME_REGISTRY.get(self.scheme).digest_json,
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell: the interval's totals.

    ``theta`` is the *resolved* weight (explicit or equal-weight);
    ``energy``/``time`` are the interval's total energy and barrier
    time (online cells include the sampling phase).
    """

    spec: CellSpec
    theta: float
    energy: float
    time: float

    @property
    def edp(self) -> float:
        """Energy-delay product of this interval."""
        return self.energy * self.time

    def to_payload(self) -> Dict[str, object]:
        """Plain-dict image of the result (cache/wire codec)."""
        return {
            "spec": self.spec.to_payload(),
            "theta": self.theta,
            "energy": self.energy,
            "time": self.time,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellResult":
        """Rebuild a result from :meth:`to_payload` output.

        ``theta``, ``energy`` and ``time`` must be real numbers (an
        ``int`` passes, a ``bool`` does not) and not NaN; anything
        else raises ``TypeError``/``ValueError``, so a mistyped remote
        reply fails over instead of reaching a figure.
        """
        return cls(
            spec=CellSpec.from_payload(payload["spec"]),
            theta=_real(payload, "theta"),
            energy=_real(payload, "energy"),
            time=_real(payload, "time"),
        )


def _real(payload: Dict[str, object], name: str) -> float:
    """``payload[name]``, checked to be a non-NaN int or float."""
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cell {name} must be a number, got {value!r}")
    if value != value:
        raise ValueError(f"cell {name} is NaN")
    return value


@dataclass(frozen=True)
class BenchmarkTotals:
    """Per-benchmark totals summed over interval cells (in order)."""

    benchmark: str
    stage: str
    scheme: str
    total_energy: float
    total_time: float
    n_intervals: int

    @property
    def edp(self) -> float:
        """Energy-delay product computed on the totals."""
        return self.total_energy * self.total_time


def n_intervals(benchmark: str) -> int:
    """Barrier-interval count of a registered benchmark."""
    return WORKLOAD_REGISTRY.get(benchmark).profile.n_intervals


def benchmark_specs(
    benchmark: str, stage: str, scheme: str, **knobs
) -> Tuple[CellSpec, ...]:
    """All interval cells of one (benchmark, stage, scheme) run."""
    return tuple(
        CellSpec(
            benchmark=benchmark,
            stage=stage,
            scheme=scheme,
            interval=k,
            **knobs,
        )
        for k in range(n_intervals(benchmark))
    )


def cell_seed(spec: CellSpec) -> int:
    """Deterministic per-cell RNG seed.

    Mixes the user seed with the cell coordinates via the content
    hash, so every (benchmark, stage, interval) cell draws from its
    own stream and results do not depend on execution order.
    """
    digest = content_key(
        "cell-seed",
        spec.seed,
        spec.benchmark,
        spec.stage,
        spec.interval,
        spec.n_samp,
        spec.sampling_fraction,
    )
    return int(digest[:16], 16)


# ----------------------------------------------------------------------
# cell evaluation (runs in worker processes; everything below must be
# deterministic and derivable from the spec alone)
# ----------------------------------------------------------------------
@lru_cache(maxsize=512)
def _interval_problems(
    benchmark: str,
    stage: str,
    c_penalty: Optional[float],
    leakage: Optional[float],
    n_voltages: Optional[int],
) -> Tuple[SynTSProblem, ...]:
    """Memoised per-process problem construction.

    Benchmark materialisation is deterministic, so caching per
    (benchmark, stage, overrides) lets e.g. a 21-theta Pareto sweep
    reuse one problem instance -- and its precomputed time/energy
    tables -- across all its theta cells in the same process.
    """
    # local imports keep worker start-up (and pickling) light
    from dataclasses import replace as dc_replace

    from repro.core.model import PlatformConfig
    from repro.core.runner import interval_problems
    from repro.workloads import build_benchmark

    config = PlatformConfig()
    if n_voltages is not None:
        if n_voltages > len(config.voltages):
            raise ValueError(
                f"n_voltages={n_voltages}, but the platform has "
                f"{len(config.voltages)} voltage levels"
            )
        volts = config.voltages[:n_voltages]
        config = dc_replace(
            config,
            voltages=volts,
            tnom_table={v: config.tnom_table[v] for v in volts},
        )
    overrides = {}
    if c_penalty is not None:
        overrides["c_penalty"] = c_penalty
    if leakage is not None:
        overrides["leakage"] = leakage
    if overrides:
        config = dc_replace(config, **overrides)
    bm = build_benchmark(benchmark, stages=[stage])
    return tuple(interval_problems(bm, stage, config))


def cached_interval_problems(
    benchmark: str, stage: str
) -> Tuple[SynTSProblem, ...]:
    """Default-platform problems of a benchmark, from the cells' memo.

    Drivers needing e.g. a theta grid share problem construction with
    their cells instead of rebuilding per driver.
    """
    return _interval_problems(benchmark, stage, None, None, None)


def _resolve_theta(spec: CellSpec, problems: Sequence[SynTSProblem]) -> float:
    if spec.theta is not None:
        return float(spec.theta)
    return problems[0].equal_weight_theta()


# ----------------------------------------------------------------------
# batched evaluation: the engine's dispatch unit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellBatch:
    """Cells sharing (benchmark, stage, scheme, platform overrides).

    The batch is the engine's dispatch unit: problem construction and
    theta resolution happen once for the whole group, the scheme's
    batch evaluator (when declared) solves every interval in one
    vectorized pass, and the remote backend ships whole batches
    instead of single cells.  ``specs`` keeps the cells' original
    relative order; ``keys``, when present, carries their content-hash
    cache keys (aligned with ``specs``) so the engine and the shard
    partition need not rehash.
    """

    specs: Tuple[CellSpec, ...]
    keys: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if not self.specs:
            raise ValueError("a CellBatch needs at least one cell")
        head = self.group_key
        for spec in self.specs:
            if _group_key(spec) != head:
                raise ValueError(
                    "all cells of a batch must share "
                    "(benchmark, stage, scheme, overrides); got "
                    f"{_group_key(spec)} vs {head}"
                )
        if self.keys is not None and len(self.keys) != len(self.specs):
            raise ValueError("keys must align with specs")

    @property
    def group_key(self) -> Tuple:
        """The (benchmark, stage, scheme, overrides) the batch shares."""
        return _group_key(self.specs[0])

    def __len__(self) -> int:
        return len(self.specs)


def _group_key(spec: CellSpec) -> Tuple:
    """Coordinates a batch shares.

    Problem construction inputs plus the scheme evaluating them.
    """
    return (
        spec.benchmark,
        spec.stage,
        spec.scheme,
        spec.c_penalty,
        spec.leakage,
        spec.n_voltages,
    )


def group_cells(
    specs: Sequence[CellSpec], keys: Optional[Sequence[str]] = None
) -> List[CellBatch]:
    """Partition cells into batches sharing their group coordinates.

    Batches share (benchmark, stage, scheme, overrides); the
    partition preserves first-appearance group order and the cells'
    relative order within each group.
    """
    if keys is not None and len(keys) != len(specs):
        raise ValueError("keys must align with specs")
    grouped: Dict[Tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        grouped.setdefault(_group_key(spec), []).append(i)
    batches = []
    for members in grouped.values():
        batches.append(
            CellBatch(
                specs=tuple(specs[i] for i in members),
                keys=(
                    tuple(keys[i] for i in members)
                    if keys is not None
                    else None
                ),
            )
        )
    return batches


def compute_batch(batch: CellBatch) -> Tuple[CellResult, ...]:
    """Evaluate a batch (a pure function of the batch).

    Problem construction and equal-weight theta resolution are shared
    across the batch; schemes declaring a ``batch_solver`` evaluate
    all intervals in one vectorized pass.  Results are bit-identical
    to evaluating each cell alone with ``Scheme.evaluate`` -- the
    batch seam may change wall time, never values.
    """
    head = batch.specs[0]
    problems = _interval_problems(
        head.benchmark,
        head.stage,
        head.c_penalty,
        head.leakage,
        head.n_voltages,
    )
    cell_problems = []
    thetas = []
    for spec in batch.specs:
        if spec.interval >= len(problems):
            raise IndexError(
                f"{spec.benchmark} has {len(problems)} intervals, "
                f"cell asks for {spec.interval}"
            )
        cell_problems.append(problems[spec.interval])
        thetas.append(_resolve_theta(spec, problems))
    scheme = SCHEME_REGISTRY.get(head.scheme)
    outcomes = scheme.evaluate_batch(cell_problems, thetas, batch.specs)
    return tuple(
        CellResult(spec=spec, theta=theta, energy=energy, time=time)
        for spec, theta, (energy, time) in zip(batch.specs, thetas, outcomes)
    )


def totalize(cells: Sequence[CellResult]) -> BenchmarkTotals:
    """Sum a benchmark's interval cells (in the given order).

    The paper's accounting (Sec. 6), held here once: energy and time
    are per-interval sums, EDP is computed on the totals.
    """
    if not cells:
        raise ValueError("cannot totalise zero cells")
    head = cells[0].spec
    for c in cells:
        if (c.spec.benchmark, c.spec.stage, c.spec.scheme) != (
            head.benchmark,
            head.stage,
            head.scheme,
        ):
            raise ValueError(
                "totalize expects cells of one (benchmark, stage, scheme)"
            )
    energy = 0.0
    time = 0.0
    for c in cells:
        energy += c.energy
        time += c.time
    return BenchmarkTotals(
        benchmark=head.benchmark,
        stage=head.stage,
        scheme=head.scheme,
        total_energy=energy,
        total_time=time,
        n_intervals=len(cells),
    )
