"""Error taxonomy shared by all modules.

DomainError marks invalid inputs (bad arguments, mismatched grids, malformed
specs); NumericalError marks computations that ran but failed to converge or
factorize; ResourceError marks refusals due to configured resource caps.
"""

__all__ = ["DomainError", "NumericalError", "ResourceError"]


class DomainError(ValueError):
    """Invalid input: preconditions or invariants violated."""


class NumericalError(RuntimeError):
    """Numerical routine failed to reach its tolerance or to factorize.

    Carries the best available estimate and an error bound so callers can
    inspect how far the computation got.
    """

    def __init__(self, message, estimate=None, bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class ResourceError(DomainError):
    """Requested computation exceeds a configured resource budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget
