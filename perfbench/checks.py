"""Output checks that do not go through the solver's own code paths.

The quantization function is rebuilt here in mpmath from the formulas in
the ``dirac_nu.spectrum`` module docstring and the parametric
Nikiforov-Uvarov constants (c1 = c2 = c3 = 1):

    c8 = C,   c9 = A - B + C + 1/4,
    f(E) = (2 n + 1 + 2 sqrt(c9) - 2 sqrt(c8))^2 - 4 A.

Nothing here calls ``_f_arrays``, ``normal_form`` or ``derive_constants``.
Every check returns a list of problem strings; an empty list is a pass.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

mpmath.mp.dps = 30

ROOT_TOL = 1e-9          # findroot must land this close to a returned root
REFERENCE_TOL = 1e-6     # published energies
NORM_TOL = 1e-4          # trapezoid integral of G^2 + F^2 on the table grid
ODE_TOL = 1e-8           # verify_ode on the terminating branch
DEGENERACY_TOL = 1e-9    # |E(kappa<0) - E(kappa>0)| at H = 0


@dataclass(frozen=True)
class Problem:
    """Plain inputs of one quantization problem, read off but not computed by the program."""

    symmetry: str
    assembly: str
    mass: float
    c_sym: float
    tensor_h: float
    alpha: float
    a_shape: float
    c0: float
    n: int
    kappa: int

    @classmethod
    def of(cls, eq) -> "Problem":
        p = eq.params
        return cls(p.symmetry, eq.assembly, p.mass, p.c_sym, p.tensor_h, p.alpha,
                   p.a_shape, p.c0, eq.state.n, eq.state.kappa)


def window(pb: Problem) -> tuple[float, float]:
    """Energies where the decay factor b2(E) is nonnegative."""
    if pb.symmetry == "pseudospin":
        return -pb.mass, pb.mass + pb.c_sym
    return -pb.mass + pb.c_sym, pb.mass


def coefficients(pb: Problem, energy) -> tuple:
    """Normal-form (A, B, C) at ``energy`` as mpmath numbers."""
    e = mpmath.mpf(energy)
    mass, c_sym, h = mpmath.mpf(pb.mass), mpmath.mpf(pb.c_sym), mpmath.mpf(pb.tensor_h)
    a2 = mpmath.mpf(pb.alpha) ** 2
    c0 = mpmath.mpf(pb.c0)
    if pb.symmetry == "pseudospin":
        q = pb.kappa + h
        g = e - mass - c_sym
        b2 = (mass + e) * (mass - e + c_sym)
    else:
        q = pb.kappa + h + 1
        g = mass + e - c_sym
        b2 = (mass - e) * (mass + e - c_sym)
    scale = 4 * a2 if (pb.symmetry == "spin" and pb.assembly == "reference") else 1
    v1 = a2 / 4
    v2 = (mpmath.mpf(pb.a_shape) - 8) * a2 / 4
    v3 = (4 - mpmath.mpf(pb.a_shape)) * a2 / 4
    ll = q * (q - 1)
    w = g * scale / (4 * a2)
    b = b2 / (4 * a2)
    big_a = ll * c0 + w * v1 + b
    big_b = ll * (2 * c0 - 1) + 2 * b - w * v2
    big_c = ll * c0 + w * v3 + b
    return big_a, big_b, big_c


def exponents(pb: Problem, energy: float) -> tuple[float, float]:
    """(nu, mu) = (sqrt(c8), 2 sqrt(c9)); NaN where a radicand is negative."""
    big_a, big_b, big_c = coefficients(pb, energy)
    c9 = big_a - big_b + big_c + mpmath.mpf(1) / 4
    nu = float(mpmath.sqrt(big_c)) if big_c >= 0 else math.nan
    mu = float(2 * mpmath.sqrt(c9)) if c9 >= 0 else math.nan
    return nu, mu


def f_value(pb: Problem, energy):
    """f(E); complex where a radicand is negative (mpmath continues the root)."""
    big_a, big_b, big_c = coefficients(pb, energy)
    c9 = big_a - big_b + big_c + mpmath.mpf(1) / 4
    return (2 * pb.n + 1 + 2 * mpmath.sqrt(c9) - 2 * mpmath.sqrt(big_c)) ** 2 - 4 * big_a


def _real(value) -> Optional[float]:
    if isinstance(value, mpmath.mpc):
        return None
    return float(value)


def find_root(pb: Problem, guess: float):
    """mpmath secant iteration on f from two points next to ``guess``."""
    step = 1e-7 * max(1.0, abs(guess))
    return mpmath.findroot(lambda x: f_value(pb, x), (guess - step, guess + step),
                           solver="secant", tol=mpmath.mpf(10) ** -40)


def check_root(pb: Problem, energy: float) -> list[str]:
    """A returned root must bracket a sign change of f, and findroot must agree."""
    lo, hi = window(pb)
    if not lo <= energy <= hi:
        return [f"{pb}: root {energy!r} outside window ({lo!r}, {hi!r})"]
    delta = 1e-10 * max(1.0, abs(energy))
    left, right = _real(f_value(pb, energy - delta)), _real(f_value(pb, energy + delta))
    if left is None or right is None or not left * right < 0.0:
        return [f"{pb}: no sign change of f across {energy!r} (f = {left!r}, {right!r})"]
    try:
        found = find_root(pb, energy)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"{pb}: findroot failed near {energy!r}: {exc}"]
    if abs(mpmath.im(found)) > ROOT_TOL or abs(float(mpmath.re(found)) - energy) > ROOT_TOL:
        return [f"{pb}: findroot gives {found}, program gives {energy!r}"]
    return []


def check_reference(published: Sequence[float], computed: Sequence[float], where: str) -> list[str]:
    """Each published energy must have a computed root of its sign within 1e-6."""
    problems = []
    for e_ref in published:
        same_sign = [e for e in computed if (e < 0.0) == (e_ref < 0.0)]
        if not same_sign or min(abs(e - e_ref) for e in same_sign) > REFERENCE_TOL:
            problems.append(f"{where}: published {e_ref!r} unmatched by {list(computed)!r}")
    return problems


def check_splitting(h_values: Sequence[float], e_neg: Sequence[float],
                    e_pos: Sequence[float], where: str) -> list[str]:
    """H = 0 doublets are degenerate; H > 0 moves the members in opposite directions."""
    if h_values[0] != 0.0:
        return [f"{where}: sweep must start at H = 0"]
    problems = []
    base_neg, base_pos = e_neg[0], e_pos[0]
    if abs(base_neg - base_pos) > DEGENERACY_TOL * max(1.0, abs(base_neg)):
        problems.append(f"{where}: H = 0 doublet not degenerate: {base_neg!r} vs {base_pos!r}")
    for h, a, b in zip(h_values[1:], e_neg[1:], e_pos[1:]):
        da, db = a - base_neg, b - base_pos
        if not da * db < 0.0:
            problems.append(f"{where}: at H = {h!r} members moved {da!r} and {db!r}, not opposite")
    return problems


def count_nodes(values: np.ndarray) -> int:
    """Interior sign changes, ignoring samples below 1e-9 of the peak."""
    values = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(values)))
    keep = values[np.abs(values) > 1e-9 * peak]
    return int(np.count_nonzero(np.sign(keep[:-1]) != np.sign(keep[1:])))


def check_decaying_table(r, g, f, dominant, n: int, where: str) -> list[str]:
    """n nodes in the solved component and unit norm on the table's own grid."""
    r, g, f = (np.asarray(a, dtype=float) for a in (r, g, f))
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(f))):
        return [f"{where}: non-finite table values"]
    problems = []
    nodes = count_nodes(dominant)
    if nodes != n:
        problems.append(f"{where}: {nodes} nodes, expected {n}")
    norm = float(np.trapezoid(g * g + f * f, r))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"{where}: trapezoid norm {norm!r} differs from 1 by more than {NORM_TOL}")
    return problems


def check_terminating_residual(residual: Optional[float], where: str) -> list[str]:
    if residual is None or not residual < ODE_TOL:
        return [f"{where}: verify_ode residual {residual!r} not below {ODE_TOL}"]
    return []
