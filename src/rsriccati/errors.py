"""Exception hierarchy shared by all modules.

The split mirrors how failures surface at the command line: bad input
(usage), leaving the mathematical domain (e.g. a matrix that must be
positive definite is not), and numerical trouble inside an otherwise
valid computation.
"""

import math


class UsageError(ValueError):
    """Malformed input: bad dimensions, unparseable documents, bad flags."""


class DomainError(ValueError):
    """Input is well-formed but outside the mathematical domain of the
    operation (not positive definite, risk parameter too large, ...)."""


class NumericalError(RuntimeError):
    """A numerically valid computation failed (eigensolver breakdown,
    singular linear system)."""


class ConeExitError(DomainError):
    """A Riccati-type update left the cone of positive definite matrices.

    Carries the smallest eigenvalue of the offending inner matrix and,
    when raised during an iteration, the index and value of the last
    valid iterate.
    """

    def __init__(self, message, *, lambda_min=None, step=None, last_valid=None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.step = step
        self.last_valid = last_valid


class IterationLimitError(NumericalError):
    """A fixed-point iteration hit its iteration cap before converging."""

    def __init__(self, message, *, iterations=None, last_distance=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_distance = last_distance


def check_finite(name: str, value, nonnegative: bool = False) -> None:
    """DomainError unless a scalar parameter is finite (and >= 0 if asked); NaN fails."""
    if not math.isfinite(value) or (nonnegative and value < 0.0):
        raise DomainError(f"{name} must be finite{' and >= 0' if nonnegative else ''}, got {value}")
