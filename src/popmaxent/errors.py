"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2,
non-convergence exits 3, capacity (enumeration too large) exits 4.
"""

from __future__ import annotations


class PopmaxentError(Exception):
    """Base class for all package errors."""


class ValidationError(PopmaxentError, ValueError):
    """Invalid or degenerate input: bad schema, out-of-range index,
    empty population, schema mismatch, malformed file."""


class UnmatchableConstraintError(ValidationError):
    """A raking constraint has positive target but zero current mass.

    Carries the offending constraint index so the caller can identify it.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class ConvergenceError(PopmaxentError, RuntimeError):
    """An iterative routine failed to converge within its cap.

    ``residual`` holds the last residual observed.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CapacityError(PopmaxentError, RuntimeError):
    """The attribute space is too large for the operation.

    Operations that enumerate every cell (or a clique's cells) fail fast
    when the count exceeds the configured cell cap; cell codes fail on
    spaces over 2^63 - 1 cells.
    """
