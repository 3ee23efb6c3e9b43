"""Synthetic SPLASH-2 workload profiles (paper Sections 5.2-5.4).

The paper extracts per-thread error-probability curves by replaying
gem5 instruction traces of ten SPLASH-2 programs through gate-level
netlists.  We cannot redistribute those traces, so each benchmark is
described by a small set of **documented constants** chosen to match
every qualitative fact the paper states:

* seven benchmarks are *heterogeneous* -- per-thread multipliers on
  the error tail, with Radix showing the published ~4x spread and
  thread 0 always the timing-speculation-critical thread (Fig. 3.5);
* FMM has very low absolute error probabilities (Fig. 6.17, ~8e-3);
* FFT sits on an error wall that "does not permit any timing
  speculation"; Ocean and Water-sp are homogeneous -- the three
  excluded benchmarks of Section 5.4;
* the three pipe stages have distinct headroom: Decode shallow/most
  headroom, SimpleALU intermediate with data-dependent carry tails,
  ComplexALU a steep multiplier wall (little headroom, Fig. 6.15-6.16).

The per-(stage, thread) error model is a Beta-tail
(:class:`repro.errors.probability.BetaTailErrorFunction`): thread
multipliers scale the activity factor ``scale_p``, reproducing the
"thread 0's curve is ~4x the lowest curve" structure of Fig. 3.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

if TYPE_CHECKING:
    from repro.errors.probability import ErrorFunction

# the error-function class loads in the function that builds one: a
# warm rerun reads only the profiles (for cache keys)

__all__ = [
    "StageErrorShape",
    "BenchmarkProfile",
    "STAGE_SHAPES",
    "SPLASH2_PROFILES",
    "HETEROGENEOUS_BENCHMARKS",
    "EXCLUDED_BENCHMARKS",
    "thread_error_function",
]


@dataclass(frozen=True)
class StageErrorShape:
    """Base Beta-tail parameters of one pipe stage's delay tail.

    ``scale_p`` is the baseline activity factor for the *least
    critical* thread (multiplier 1.0); thread multipliers scale it,
    raised to the stage's ``sensitivity`` exponent.  A sensitivity of
    1 means operand statistics fully modulate the error tail (carry
    chains, decode trees); a small sensitivity models a *structural*
    delay wall -- the ComplexALU's multiplier array sensitises
    near-critical paths for almost any operand pair, so thread-level
    operand variation moves its error curve only weakly (this is why
    the paper's ComplexALU gains are modest, 7.5 %).
    """

    a: float
    b: float
    lo: float
    hi: float
    scale_p: float
    sensitivity: float = 1.0


#: Per-stage delay-tail shapes.  Decode: wide shallow distribution with
#: a long thin tail (lots of speculation headroom).  SimpleALU: carry
#: chains give a fatter, earlier tail.  ComplexALU: the multiplier wall
#: concentrates sensitised delays near the critical path (errors rise
#: steeply as soon as r dips below ~0.9) and damps heterogeneity.
STAGE_SHAPES: Dict[str, StageErrorShape] = {
    "decode": StageErrorShape(
        a=5.5, b=4.0, lo=0.40, hi=0.99, scale_p=0.028, sensitivity=1.0
    ),
    "simple_alu": StageErrorShape(
        a=6.2, b=4.2, lo=0.45, hi=1.00, scale_p=0.033, sensitivity=0.95
    ),
    # scale_p stays near the paper's observed error-probability ceiling
    # (~0.12-0.18, Figs. 3.5/6.17): a higher wall would make the online
    # sampling phase implausibly expensive at the deep TSR levels.
    "complex_alu": StageErrorShape(
        a=6.3, b=7.0, lo=0.62, hi=1.00, scale_p=0.18, sensitivity=0.20
    ),
}


@dataclass(frozen=True)
class BenchmarkProfile:
    """Calibrated constants describing one SPLASH-2 benchmark.

    Attributes
    ----------
    name:
        SPLASH-2 program name.
    thread_multipliers:
        Per-thread scaling of the error tail (thread 0 first).  A
        spread > 1 is the thread-level heterogeneity SynTS exploits.
    error_scale:
        Global multiplier on the stage activity factor; < 1 for
        low-error programs (FMM), >> 1 for the FFT error wall.
    instructions:
        Per-thread instruction count in the first barrier interval.
    cpi_base:
        Per-thread error-free CPI.
    interval_drift:
        Multiplier applied to instruction counts for each successive
        barrier interval (paper: 3 intervals per benchmark).
    n_intervals:
        Barrier intervals to model.
    """

    name: str
    thread_multipliers: Tuple[float, ...]
    error_scale: float
    instructions: Tuple[int, ...]
    cpi_base: Tuple[float, ...]
    interval_drift: Tuple[float, ...] = (1.0, 0.92, 1.08)
    n_intervals: int = 3

    def __post_init__(self):
        # tuples whatever the caller passed: registry digests are
        # memoised, so a profile must not change after construction
        for name in (
            "thread_multipliers", "instructions", "cpi_base", "interval_drift",
        ):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.thread_multipliers) != len(self.instructions) or len(
            self.instructions
        ) != len(self.cpi_base):
            raise ValueError("per-thread tuples must have equal length")
        if len(self.interval_drift) < self.n_intervals:
            raise ValueError("need a drift factor per interval")

    @property
    def n_threads(self) -> int:
        return len(self.thread_multipliers)

    @property
    def heterogeneity(self) -> float:
        """Max/min spread of the thread multipliers (Radix ~4x)."""
        return max(self.thread_multipliers) / min(self.thread_multipliers)


#: The ten characterised benchmarks (Section 5.4).  The seven reported
#: ones are heterogeneous; FFT/Ocean/Water-sp are the excluded three.
SPLASH2_PROFILES: Dict[str, BenchmarkProfile] = {
    "barnes": BenchmarkProfile(
        name="barnes",
        thread_multipliers=(1.9, 1.35, 1.12, 1.0),
        error_scale=1.0,
        instructions=(520_000, 505_000, 498_000, 512_000),
        cpi_base=(1.32, 1.28, 1.30, 1.26),
    ),
    "cholesky": BenchmarkProfile(
        name="cholesky",
        thread_multipliers=(3.6, 2.1, 1.35, 1.0),
        error_scale=1.1,
        instructions=(520_000, 512_000, 505_000, 500_000),
        cpi_base=(1.42, 1.38, 1.35, 1.33),
    ),
    "fmm": BenchmarkProfile(
        name="fmm",
        thread_multipliers=(3.2, 1.6, 1.25, 1.0),
        error_scale=0.10,
        instructions=(106_000, 103_000, 100_000, 102_000),
        cpi_base=(1.22, 1.20, 1.24, 1.19),
    ),
    "lu_contig": BenchmarkProfile(
        name="lu_contig",
        thread_multipliers=(1.75, 1.4, 1.18, 1.0),
        error_scale=0.9,
        instructions=(505_000, 495_000, 510_000, 500_000),
        cpi_base=(1.18, 1.16, 1.17, 1.15),
    ),
    "lu_ncontig": BenchmarkProfile(
        name="lu_ncontig",
        thread_multipliers=(2.1, 1.55, 1.22, 1.0),
        error_scale=1.0,
        instructions=(515_000, 525_000, 490_000, 505_000),
        cpi_base=(1.35, 1.31, 1.33, 1.29),
    ),
    "radix": BenchmarkProfile(
        name="radix",
        thread_multipliers=(4.0, 2.2, 1.5, 1.0),
        error_scale=1.2,
        instructions=(540_000, 520_000, 505_000, 515_000),
        cpi_base=(1.25, 1.22, 1.24, 1.20),
    ),
    "raytrace": BenchmarkProfile(
        name="raytrace",
        thread_multipliers=(2.9, 1.75, 1.3, 1.0),
        error_scale=1.05,
        instructions=(530_000, 500_000, 515_000, 495_000),
        cpi_base=(1.40, 1.36, 1.38, 1.34),
    ),
    # -- excluded from the result figures (Section 5.4) --
    "fft": BenchmarkProfile(
        name="fft",
        thread_multipliers=(1.0, 1.0, 1.0, 1.0),
        error_scale=30.0,  # "error probabilities are high and do not
        # permit any timing speculation"
        instructions=(500_000, 500_000, 500_000, 500_000),
        cpi_base=(1.21, 1.21, 1.21, 1.21),
    ),
    "ocean": BenchmarkProfile(
        name="ocean",
        thread_multipliers=(1.0, 1.0, 1.0, 1.0),
        error_scale=1.0,
        instructions=(505_000, 500_000, 502_000, 498_000),
        cpi_base=(1.42, 1.42, 1.41, 1.43),
    ),
    "water_sp": BenchmarkProfile(
        name="water_sp",
        thread_multipliers=(1.05, 1.0, 1.02, 1.0),
        error_scale=0.95,
        instructions=(500_000, 498_000, 501_000, 499_000),
        cpi_base=(1.24, 1.23, 1.24, 1.23),
    ),
}

#: The seven benchmarks the paper reports results for (Section 5.4).
HETEROGENEOUS_BENCHMARKS: Tuple[str, ...] = (
    "barnes",
    "cholesky",
    "fmm",
    "lu_contig",
    "lu_ncontig",
    "radix",
    "raytrace",
)

#: Excluded: homogeneous error probabilities / FFT error wall.
EXCLUDED_BENCHMARKS: Tuple[str, ...] = ("fft", "ocean", "water_sp")


def thread_error_function(
    profile: BenchmarkProfile,
    stage: str,
    thread: int,
    shapes: Mapping[str, StageErrorShape] | None = None,
) -> ErrorFunction:
    """The calibrated Beta-tail error function of one thread/stage.

    ``shapes`` overrides the paper's :data:`STAGE_SHAPES` (registry
    entries with their own per-stage error tails pass theirs).
    """
    from repro.errors.probability import BetaTailErrorFunction

    shape = (shapes if shapes is not None else STAGE_SHAPES)[stage]
    mult = profile.thread_multipliers[thread] * profile.error_scale
    damped = mult**shape.sensitivity
    return BetaTailErrorFunction(
        a=shape.a,
        b=shape.b,
        lo=shape.lo,
        hi=shape.hi,
        scale_p=min(1.0, shape.scale_p * damped),
    )
