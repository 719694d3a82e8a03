"""Error taxonomy shared by all modules.

DomainError marks invalid inputs (bad arguments, mismatched grids, malformed
specs, runs past a resource cap); NumericalError marks computations that ran
but failed to converge or factorize. They are the CLI's exit codes 2 and 3.
"""

__all__ = ["DomainError", "NumericalError"]


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
