"""Nikiforov-Uvarov constants of the one normal form the solver builds.

Every state, in either symmetry limit, lands in the normal form

    psi''(s) + (1 - s) / (s (1 - s)) psi'(s)
             + (-A s^2 + B s - C) / (s^2 (1 - s)^2) psi(s) = 0,

the parametric method with its three linear coefficients equal to one.
Two derived constants fix both the quantization condition and the
polynomial solution,

    c8 = C,    c9 = -B + C + 1/4 + A,

and with nu = sqrt(c8) and mu = 2 sqrt(c9) the solution :mod:`.wavefn`
builds is

    psi(s) = s^{sigma nu} (1 - s)^{(1 + mu)/2} P_n^{(2 sigma nu, mu)}(1 - 2 s),

sigma = +-1 selecting the branch.  The square roots are taken nonnegative.
Radicands are clamped to zero when they sit within RADICAND_CLAMP below
zero (roundoff from exact zeros); anything more negative raises
NegativeRadicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NegativeRadicand

if TYPE_CHECKING:
    from .spectrum import EnergyEquation

RADICAND_CLAMP = 1e-12


@dataclass(frozen=True)
class NuProblem:
    """Normal-form coefficients (A, B, C)."""

    big_a: float
    big_b: float
    big_c: float

    def __post_init__(self) -> None:
        for name in ("big_a", "big_b", "big_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")


def normal_form(eq: EnergyEquation, energy: float) -> NuProblem:
    """Assemble the normal-form coefficients of ``eq`` at a trial energy, from
    the constants it keeps (``spectrum.EnergyEquation``)."""
    t = eq.terms
    x = t.mirror * energy
    w = (x - t.mass - t.c_sym) * eq.scale / t.four_a2
    b = (t.mass + x) * (t.mass - x + t.c_sym) / t.four_a2
    big_a = t.ll_c0 + w * t.v1 + b
    big_b = (eq.q * (eq.q - 1.0) * (2.0 * eq.params.c0 - 1.0) + 2.0 * b
             - w * (t.mirror * eq.coeffs.v2))
    big_c = t.ll_c0 + w * t.v3 + b
    return NuProblem(big_a=big_a, big_b=big_b, big_c=big_c)


@dataclass(frozen=True)
class NuDerived:
    """The derived constants c8 and c9 and their guarded square roots."""

    c8: float
    c9: float
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
    """Compute c8 and c9 from the normal-form coefficients.

    The operations are those the general parametric method performs with
    its linear coefficients at one, in the same order, so every value, the
    sign of a zero included, is the general method's.
    """
    c8 = 0.0 + problem.big_c
    c9 = ((-0.0 - problem.big_b) + c8) + (0.25 + problem.big_a)
    return NuDerived(
        c8=c8,
        c9=c9,
        sqrt_c8=guarded_sqrt(c8, "c8"),
        sqrt_c9=guarded_sqrt(c9, "c9"),
    )


def quantization_residual(problem: NuProblem, derived: NuDerived, n: int) -> float:
    """Left-hand side of the quantization condition for radial index n.

    Vanishes exactly at an eigenvalue:

        n + (2n + 1)/2 + (2n + 1)(sqrt(c9) - sqrt(c8))
        + n (n - 1) - B + 2 c8 - 2 sqrt(c8) sqrt(c9) = 0
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n!r}")
    return (
        n
        - (2 * n + 1) * -0.5
        + (2 * n + 1) * (derived.sqrt_c9 - derived.sqrt_c8)
        + n * (n - 1)
        + (-0.0 - problem.big_b)
        + 2.0 * derived.c8
        - 2.0 * derived.sqrt_c8 * derived.sqrt_c9
    )
