"""U, the radical-free sextic of the polynomial oracle, in u = sqrt(4 c9).

``spectrum.quartic_oracle`` derives it: its seven coefficients from the
constants of f (``fcore._FTerms``), the roots ``np.roots`` would take of
them, and the Newton steps that polish each real root on U's factored
value, in u and then in x = sigma E.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _geev  # what np.linalg.eigvals calls

if TYPE_CHECKING:
    from .fcore import _FTerms


def _nonconvergence(err: str, flag: int) -> None:
    """The error np.linalg.eigvals raises where LAPACK does not converge."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _companion_roots(polys: Sequence[Sequence[float]]) -> list[Optional[list[complex]]]:
    """The roots ``np.roots`` returns for each of ``polys``, in its order, as
    complex numbers, or None for a polynomial whose companion matrix holds
    an entry past the doubles.  Coefficients are highest degree first, all
    of one length with a nonzero leading one.

    The roots are the eigenvalues of the companion matrix of a polynomial
    stripped of its trailing zeros, then a 0 for each of these.  Its first
    row, -c_k / c_0, is formed in Python, as np.roots forms it in numpy, and
    checked there: c_k / c_0 overflows where both are finite.  Matrices of
    one size go in one stack to the LAPACK gufunc that np.linalg.eigvals
    wraps (geev, signature d->D), which runs on each matrix as on one alone,
    under eigvals' error state: non-convergence is its LinAlgError.  So the
    values are eigvals' own, without its array checks and conversions."""
    roots: list[Optional[list[complex]]] = []
    by_degree: dict[int, list[tuple[int, list[float]]]] = {}  # after the trailing zeros
    for i, coeffs in enumerate(polys):
        degree = len(coeffs) - 1
        while degree and coeffs[degree] == 0.0:
            degree -= 1
        lead = coeffs[0]
        top = [-c / lead for c in coeffs[1:degree + 1]]
        if all(map(math.isfinite, top)):
            roots.append([0j] * (len(coeffs) - 1 - degree))
            if degree:
                by_degree.setdefault(degree, []).append((i, top))
        else:
            roots.append(None)
    for degree, group in by_degree.items():
        companion = np.zeros((len(group), degree, degree))
        companion.reshape(len(group), -1)[:, degree::degree + 1] = 1.0  # the subdiagonal
        companion[:, 0] = [top for _, top in group]
        with np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            values = _geev(companion, signature="d->D").tolist()
        for (i, _), row in zip(group, values):
            roots[i] = row + roots[i]
    return roots


def _polymul(a: list, b: list) -> list:
    """The product of two polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _u_polynomial(t: _FTerms) -> list:
    """U's seven coefficients in u (see :func:`.spectrum.quartic_oracle`),
    lowest degree first, from the constants of f.  The literals are
    integers, so the coefficients are doubles for double constants and
    exact for ``fractions.Fraction`` ones."""
    # w = w0 + w2 u^2 and g = x - M - sigma C = w / w_scale are even in u,
    # and b2 = (M + x)(M - x + sigma C) = -g (g + 2 M + sigma C)
    w2, w0 = 1 / (4 * t.v_total), -t.c9_base / t.v_total
    g2, g0 = w2 / t.w_scale, w0 / t.w_scale
    m2 = 2 * t.mass + t.c_sym
    q8 = [4 * (t.ll_c0 + w0 * t.v3 - g0 * (g0 + m2) / t.four_a2), 0,
          4 * (w2 * t.v3 - g2 * (2 * g0 + m2) / t.four_a2), 0,
          -4 * g2 * g2 / t.four_a2]
    dv = 4 * (t.v3 - t.v1)
    s = [t.width * t.width + dv * w0, 2 * t.width, 1 + dv * w2]
    sq = _polymul(s, s) + [0, 0]
    return [x - y for x, y in zip(sq, _polymul([4 * t.width * t.width, 8 * t.width, 4], q8))]


def _u_value(t: _FTerms, u: float, w: float, x: float) -> tuple[float, float, float]:
    """U(u) from its factors, U'(u) and S(u), given the w and x that go with u;
    4 c8 is formed as :func:`.fcore._f_point` forms it.  The constants are
    unpacked once: a local is quicker than a field."""
    _, mass, c_sym, ll_c0, _, w_scale, four_a2, v1, v3, v_total, width, _ = t
    wu = width + u
    dv = 4.0 * (v3 - v1)
    s = wu * wu + dv * w
    q8 = 4.0 * (ll_c0 + w * v3 + (mass + x) * (mass - x + c_sym) / four_a2)
    dw = 0.5 * u / v_total
    dq8 = 4.0 * dw * (v3 + (c_sym - 2.0 * x) / (w_scale * four_a2))
    slope = 2.0 * s * (2.0 * wu + dv * dw) - 8.0 * wu * q8 - 4.0 * wu * wu * dq8
    return s * s - 4.0 * wu * wu * q8, slope, s


# Newton steps on U's factored value per real root: in u, then for a
# survivor in x = sigma E
U_STEPS = 3
X_STEPS = 2


def _polish_u(t: _FTerms, u: float) -> tuple[float, float, float]:
    """U_STEPS Newton steps in u from a real root of U's coefficients; returns
    u, its x and S(u)."""
    _, mass, c_sym, _, c9_base, w_scale, _, _, _, v_total, _, _ = t
    for step in range(U_STEPS + 1):
        w = (0.25 * u * u - c9_base) / v_total
        x = w / w_scale + mass + c_sym
        value, slope, s = _u_value(t, u, w, x)
        if step == U_STEPS or slope == 0.0:
            break
        u -= value / slope
    return u, x, s


def _polish_x(t: _FTerms, x: float) -> float:
    """X_STEPS Newton steps on U in x, each piece taken from x as f takes it:
    u = sqrt(4 c9(x)), with dx/du = u / (2 V w_scale)."""
    _, mass, c_sym, _, c9_base, w_scale, _, _, _, v_total, _, _ = t
    for _ in range(X_STEPS):
        w = (x - mass - c_sym) * w_scale
        q9 = 4.0 * (c9_base + w * v_total)
        if not q9 >= 0.0:
            break
        u = math.sqrt(q9)
        value, slope, _ = _u_value(t, u, w, x)
        if slope == 0.0:
            break
        x -= value / slope * (0.5 * u / (v_total * w_scale))
    return x
