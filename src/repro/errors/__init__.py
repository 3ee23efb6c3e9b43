"""Timing-error modelling: error-probability functions, fitting and
the online sampling estimator (paper Sections 4.1 and 4.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".estimation": (
            "SamplingPlan", "SamplingRecord", "estimate_error_function",
        ),
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

__all__ = [
    "ScaledErrorFunction",
    "VariationModel",
    "apply_variation",
    "ErrorFunction",
    "BetaTailErrorFunction",
    "TabulatedErrorFunction",
    "EmpiricalErrorFunction",
    "ZeroErrorFunction",
    "check_monotone_nonincreasing",
    "SamplingPlan",
    "SamplingRecord",
    "estimate_error_function",
    "isotonic_nonincreasing",
    "isotonic_nondecreasing",
    "fit_beta_tail",
]
