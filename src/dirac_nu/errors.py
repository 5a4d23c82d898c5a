"""Exception types shared across the solver."""

from __future__ import annotations


class SolverError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SolverError, ValueError):
    """Input outside the validated parameter domain."""


class ConfigError(SolverError, ValueError):
    """Malformed or contradictory run configuration."""


class NegativeRadicand(SolverError):
    """A square-root argument fell below the clamping tolerance.

    Signals a nonphysical parameter regime rather than a numerical bug.
    """

    def __init__(self, which: str, value: float) -> None:
        self.which = which
        self.value = value
        super().__init__(f"negative radicand {which} = {value!r}")


class WindowViolation(SolverError):
    """Energy argument outside the physical search window."""


class NoPhysicalWindow(SolverError):
    """The bound-state window is empty for these parameters."""


class NoRootFound(SolverError):
    """Grid scan plus bisection located no root of the quantization condition."""


class OracleMismatch(SolverError):
    """Bisection roots and polynomial-oracle roots disagree."""


class DenominatorNearZero(SolverError):
    """Coupling-operator denominator too small to divide by."""


class NonNormalizable(SolverError):
    """No decaying solution exists (vanishing decay exponent)."""


class GridTooCoarse(SolverError):
    """Not enough interior points for a meaningful residual check."""
