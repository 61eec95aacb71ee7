"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A point or tangent vector violates a manifold constraint."""


class DefinitenessError(ValidationError):
    """A matrix that must be symmetric positive definite is not."""


class ZeroDirectionError(ValueError):
    """An operation requires a nonzero tangent direction."""


class UndefinedGradientError(ValueError):
    """The requested gradient does not exist at this point."""


class NumericalDomainError(ArithmeticError):
    """An intermediate quantity left its mathematical domain by more than
    rounding slack."""


class StalledInnerSolveError(RuntimeError):
    """The first line search of an inner solve found no acceptable step.

    Carries the best point, the start of the inner solve, and its value.
    """

    def __init__(self, message, best_point=None, best_value=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value
