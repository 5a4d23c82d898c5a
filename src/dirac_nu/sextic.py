"""U, the radical-free sextic of the polynomial oracle, in u = sqrt(4 c9).

``spectrum.quartic_oracle`` derives it: its seven coefficients from the
constants of f (``fcore._FTerms``), the roots ``np.roots`` would take of
them, and the Newton steps that polish each real root on U's factored
value, in u and then in x = sigma E.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fcore import _FTerms


def _companion_roots(polys: Sequence[Sequence[float]]) -> list[list[complex]]:
    """The roots ``np.roots`` returns for each of ``polys``, in its order,
    without its array checks: coefficients highest degree first, all of one
    length with a nonzero leading one.  They are the eigenvalues of the
    companion matrix of a polynomial stripped of its trailing zeros, then a
    0 for each of these.  Matrices of one size take one stacked eigvals,
    which runs LAPACK on each as it runs on one alone."""
    p = np.array(polys)
    roots: list[list[complex]] = []
    by_degree: dict[int, list[int]] = {}  # after the trailing zeros
    for i, coeffs in enumerate(polys):
        degree = len(coeffs) - 1
        while degree and coeffs[degree] == 0.0:
            degree -= 1
        roots.append([0j] * (len(coeffs) - 1 - degree))
        by_degree.setdefault(degree, []).append(i)
    for degree, rows in by_degree.items():
        if not degree:
            continue
        q = p[rows]
        companion = np.zeros((len(rows), degree, degree))
        companion.reshape(len(rows), -1)[:, degree::degree + 1] = 1.0  # the subdiagonal
        companion[:, 0, :] = -q[:, 1:degree + 1] / q[:, :1]
        # one matrix alone skips the stacked call's overhead, not its arithmetic
        values = np.linalg.eigvals(companion if len(rows) > 1 else companion[0]).tolist()
        for i, row in zip(rows, values if len(rows) > 1 else [values]):
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
    4 c8 is formed as :func:`.fcore._f_point` forms it."""
    wu = t.width + u
    dv = 4.0 * (t.v3 - t.v1)
    s = wu * wu + dv * w
    q8 = 4.0 * (t.ll_c0 + w * t.v3 + (t.mass + x) * (t.mass - x + t.c_sym) / t.four_a2)
    dw = 0.5 * u / t.v_total
    dq8 = 4.0 * dw * (t.v3 + (t.c_sym - 2.0 * x) / (t.w_scale * t.four_a2))
    slope = 2.0 * s * (2.0 * wu + dv * dw) - 8.0 * wu * q8 - 4.0 * wu * wu * dq8
    return s * s - 4.0 * wu * wu * q8, slope, s


# Newton steps on U's factored value per real root: in u, then for a
# survivor in x = sigma E
U_STEPS = 3
X_STEPS = 2


def _polish_u(t: _FTerms, u: float) -> tuple[float, float, float]:
    """U_STEPS Newton steps in u from a real root of U's coefficients; returns
    u, its x and S(u)."""
    for step in range(U_STEPS + 1):
        w = (0.25 * u * u - t.c9_base) / t.v_total
        x = w / t.w_scale + t.mass + t.c_sym
        value, slope, s = _u_value(t, u, w, x)
        if step == U_STEPS or slope == 0.0:
            break
        u -= value / slope
    return u, x, s


def _polish_x(t: _FTerms, x: float) -> float:
    """X_STEPS Newton steps on U in x, each piece taken from x as f takes it:
    u = sqrt(4 c9(x)), with dx/du = u / (2 V w_scale)."""
    for _ in range(X_STEPS):
        w = (x - t.mass - t.c_sym) * t.w_scale
        q9 = 4.0 * (t.c9_base + w * t.v_total)
        if not q9 >= 0.0:
            break
        u = math.sqrt(q9)
        value, slope, _ = _u_value(t, u, w, x)
        if slope == 0.0:
            break
        x -= value / slope * (0.5 * u / (t.v_total * t.w_scale))
    return x
