"""Parametric engine for second-order ODEs of hypergeometric type.

Handles equations already brought to the normal form

    psi''(s) + (c1 - c2 s) / (s (1 - c3 s)) psi'(s)
             + (-A s^2 + B s - C) / (s^2 (1 - c3 s)^2) psi(s) = 0

by a change of variable.  Thirteen derived constants c4..c13 fix both the
discrete quantization condition and the factorized polynomial solutions

    psi(s) = s^{c12} (1 - c3 s)^{-c12 - c13/c3} P_n^{(c10 - 1, c11/c3 - c10 - 1)}(1 - 2 c3 s).

Sign conventions: the square roots sqrt(c8) and sqrt(c9) are taken
nonnegative and enter c10..c13 with minus signs.  Radicands are clamped to
zero when they sit within RADICAND_CLAMP below zero (roundoff from exact
zeros); anything more negative raises NegativeRadicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NegativeRadicand

RADICAND_CLAMP = 1e-12


@dataclass(frozen=True)
class NuProblem:
    """Normal-form coefficients (c1, c2, c3) and (A, B, C)."""

    c1: float
    c2: float
    c3: float
    big_a: float
    big_b: float
    big_c: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "big_a", "big_b", "big_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class NuDerived:
    """The thirteen derived constants plus the two guarded square roots."""

    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float
    sqrt_c8: float
    sqrt_c9: float


def guarded_sqrt(value: float, which: str) -> float:
    """sqrt with the clamp policy: tiny negatives are treated as exact zero."""
    if value < 0.0:
        if value >= -RADICAND_CLAMP:
            return 0.0
        raise NegativeRadicand(which, value)
    return math.sqrt(value)


def derive_constants(problem: NuProblem) -> NuDerived:
    """Compute c4..c13 from the normal-form coefficients."""
    c1, c2, c3 = problem.c1, problem.c2, problem.c3
    big_a, big_b, big_c = problem.big_a, problem.big_b, problem.big_c

    c4 = 0.5 * (1.0 - c1)
    c5 = 0.5 * (c2 - 2.0 * c3)
    c6 = c5 * c5 + big_a
    c7 = 2.0 * c4 * c5 - big_b
    c8 = c4 * c4 + big_c
    c9 = c3 * c7 + c3 * c3 * c8 + c6

    sqrt_c8 = guarded_sqrt(c8, "c8")
    sqrt_c9 = guarded_sqrt(c9, "c9")

    c10 = c1 + 2.0 * c4 - 2.0 * sqrt_c8
    c11 = c2 - 2.0 * c5 + 2.0 * (sqrt_c9 - c3 * sqrt_c8)
    c12 = c4 - sqrt_c8
    c13 = c5 - (sqrt_c9 - c3 * sqrt_c8)

    return NuDerived(
        c4=c4, c5=c5, c6=c6, c7=c7, c8=c8, c9=c9,
        c10=c10, c11=c11, c12=c12, c13=c13,
        sqrt_c8=sqrt_c8, sqrt_c9=sqrt_c9,
    )


def quantization_residual(problem: NuProblem, derived: NuDerived, n: int) -> float:
    """Left-hand side of the quantization condition for radial index n.

    Vanishes exactly at an eigenvalue:

        c2 n - (2n + 1) c5 + (2n + 1)(sqrt(c9) - c3 sqrt(c8))
        + n (n - 1) c3 + c7 + 2 c3 c8 - 2 sqrt(c8) sqrt(c9) = 0
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n!r}")
    return (
        problem.c2 * n
        - (2 * n + 1) * derived.c5
        + (2 * n + 1) * (derived.sqrt_c9 - problem.c3 * derived.sqrt_c8)
        + n * (n - 1) * problem.c3
        + derived.c7
        + 2.0 * problem.c3 * derived.c8
        - 2.0 * derived.sqrt_c8 * derived.sqrt_c9
    )
