"""Generic branch-and-bound MILP solver over scipy LP relaxations."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".branch_bound": ("BranchAndBoundError", "solve_milp"),
        ".problem": ("MILP", "MILPResult", "MILPStatus", "Sense"),
    },
)

__all__ = [
    "MILP",
    "MILPResult",
    "MILPStatus",
    "Sense",
    "solve_milp",
    "BranchAndBoundError",
]
