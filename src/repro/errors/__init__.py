"""Timing-error modelling: error-probability functions, fitting and
the online sampling estimator (paper Sections 4.1 and 4.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".estimation": ("SamplingPlan", "SamplingRecord"),
        ".fitting": (
            "fit_beta_tail", "isotonic_nondecreasing",
            "isotonic_nonincreasing",
        ),
        ".probability": (
            "BetaTailErrorFunction", "EmpiricalErrorFunction", "ErrorFunction",
            "TabulatedErrorFunction", "ZeroErrorFunction",
            "check_monotone_nonincreasing",
        ),
        ".variation": (
            "ScaledErrorFunction", "VariationModel", "apply_variation",
        ),
    },
)
