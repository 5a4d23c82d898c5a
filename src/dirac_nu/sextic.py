"""U, the radical-free sextic of the polynomial oracle, in u = sqrt(4 c9).

``spectrum.quartic_oracle`` derives it: its seven coefficients from the
constants of f (``fcore._FTerms``), the roots ``np.roots`` would take of
them, and the Newton steps that polish each real root on U's factored
value, in u and then in x = sigma E.  Its roots also certify what a scan
of f would find (:func:`_certified_brackets`): inclusion discs about them
for the roots of U formed exactly (:func:`_inclusion_discs`), a lower bound
on |U| away from the discs (:func:`_u_floor`), and the bounds on f of
``fcore``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _geev  # what np.linalg.eigvals calls

from .fcore import _DOWN, _ROUND, _TINY, _UP, _f_floor, _f_point, _slope_bound

if TYPE_CHECKING:
    from .fcore import _FTerms
    from .sampling import _Samples


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


def _u_factors(t: _FTerms, minus: int = -1) -> tuple[list, list]:
    """S(u) and Q8(u), 4 c8 at E(u), in u (see :func:`.spectrum.quartic_oracle`),
    lowest degree first, from the constants of f: U = S^2 - 4 (W + u)^2 Q8.
    The literals are integers, so the coefficients are doubles for double
    constants and exact for ``fractions.Fraction`` ones.  Each difference a
    - b is formed as a + minus * b, the same double for ``minus`` -1; with
    ``minus`` 1 and the constants' magnitudes the same operations give the
    sum of the magnitudes of each coefficient's terms."""
    # w = w0 + w2 u^2 and g = x - M - sigma C = w / w_scale are even in u,
    # and b2 = (M + x)(M - x + sigma C) = -g (g + 2 M + sigma C)
    w2, w0 = 1 / (4 * t.v_total), minus * t.c9_base / t.v_total
    g2, g0 = w2 / t.w_scale, w0 / t.w_scale
    m2 = 2 * t.mass + t.c_sym
    q8 = [4 * (t.ll_c0 + w0 * t.v3 + minus * g0 * (g0 + m2) / t.four_a2), 0,
          4 * (w2 * t.v3 + minus * g2 * (2 * g0 + m2) / t.four_a2), 0,
          minus * 4 * g2 * g2 / t.four_a2]
    dv = 4 * (t.v3 + minus * t.v1)
    return [t.width * t.width + dv * w0, 2 * t.width, 1 + dv * w2], q8


def _u_polynomial(t: _FTerms) -> list:
    """U's seven coefficients in u (see :func:`.spectrum.quartic_oracle`),
    lowest degree first, from the constants of f (:func:`_u_factors`)."""
    s, q8 = _u_factors(t)
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


# every constant of f that U is formed from is 0 or has a magnitude within
# 2^+-100: then each operation of _u_polynomial, whose terms are products
# of at most nine constants and their inverses, rounds by at most 2 u of its
# magnitude, underflow included, and none overflows
_SPAN = 2.0 ** 100
# U's coefficients are at most 13 operations deep: |c^ - c| <= 26.1 u times
# c's magnitude; per unit of sum |c_k| |z|^k, Horner's rule in complex
# doubles adds less than 2 (1 + sqrt 5) u a step, six steps
_COEFF_ERR = 32.0 * _ROUND
_VALUE_ERR = 96.0 * _ROUND


def _inclusion_discs(t: _FTerms, coeffs: Sequence[float], roots: Sequence[complex]
                     ) -> Optional[tuple[float, list[list[tuple[float, float, float]]]]]:
    """(lc, clusters): a lower bound lc > 0 on the leading coefficient of U
    formed exactly from the constants ``t``, and about each of U's computed
    ``roots`` z = x + iy a disc (x, y, radius), in clusters that each hold
    as many roots of that U as discs; None where a bound cannot be formed
    in the doubles.  ``coeffs`` are U's doubles, highest degree first.

    The radius is 6 |W_j|, W_j = U(z_j) / (lc prod_{k != j} (z_j - z_k))
    the Weierstrass correction: the roots of U lie in the union of these
    discs, and a union of m of them apart from the others holds exactly m
    (Smith 1970, J. ACM 17, 661; Carstensen 1991, Numer. Math. 59, 349,
    from Gerschgorin's theorem on Smith's matrix).  Where the least distance
    of two roots exceeds twice the largest radius, each disc is a cluster of
    its own; otherwise every two discs not shown apart join one cluster, as
    the two approximations of a double root of U do (U has one at u = -(2n
    + 1) where q = n + 1 or q = -n).

    |U(z_j)| is bounded by Horner's value on the doubles plus _VALUE_ERR
    times m(|z_j|), m the polynomial of the magnitudes of U's coefficients,
    sum m_k r^k = s(r)^2 + 4 (W + r)^2 q(r) with s and q those of
    :func:`_u_factors` for the constants' magnitudes and ``minus`` 1.  That
    covers the rule's rounding and the doubles against U formed exactly; lc
    is the double less _COEFF_ERR m_6.  Products that could underflow or
    overflow are refused: every root distance within 2^+-100 and every
    nonzero |z_j| at least 2^-100, so that with m_6 >= 1 Horner's partial
    sums stay above 2^-600, and m(|z_j|) below 2^1000; lc, from constants
    within 2^+-100, is within 2^+-500, and so are the products of distances
    with it.
    """
    size = t._make(map(abs, t))
    if not (max(size[1:11]) <= _SPAN and min(filter(None, size[1:11])) >= 1.0 / _SPAN):
        return None
    (s0, s1, s2), (q0, _, q2, _, q4) = _u_factors(size, 1)
    lc = (coeffs[0] - _COEFF_ERR * (s2 * s2 + 4.0 * q4)) * _DOWN  # m_6 = s2^2 + 4 q4 >= 1
    if not lc > 0.0:
        return None
    width, near, top, discs = t.width, _SPAN, 0.0, []
    for j, z in enumerate(roots):
        scale = lc
        for k, other in enumerate(roots):
            if k != j:
                d = abs(z - other)
                scale *= d
                near, top = min(near, d), max(top, d)
        if not (1.0 / _SPAN <= near and top <= _SPAN):
            return None
        value, x = 0.0, (z if z.imag else z.real)
        for c in coeffs:
            value = value * x + c
        r = abs(z)
        r2, wide, poly = r * r, width + r, s0 + r * (s1 + r * s2)
        bound = poly * poly + 4.0 * wide * wide * (q0 + r2 * (q2 + r2 * q4))
        if z and not (r >= 1.0 / _SPAN and bound < 2.0 ** 1000):
            return None
        discs.append((z.real, z.imag,
                      6.0 * (abs(value) + _VALUE_ERR * bound) / (scale * _DOWN) * _UP + _TINY))
    if near * _DOWN > 2.0 * max(d[2] for d in discs) * _UP:  # pairwise disjoint
        return lc, [[disc] for disc in discs]
    label = list(range(len(roots)))
    for j, z in enumerate(roots):
        for k in range(j):
            if not abs(z - roots[k]) * _DOWN > (discs[j][2] + discs[k][2]) * _UP:
                label = [label[k] if mark == label[j] else mark for mark in label]
    return lc, [[disc for disc, mark in zip(discs, label) if mark == cluster]
                for cluster in sorted(set(label))]


def _u_floor(lc: float, clusters: Sequence[Sequence[tuple[float, float, float]]],
             u0: float, u1: float) -> float:
    """A lower bound on |U(u)| for every real u in [u0, u1], where each of
    ``clusters`` of discs (x, y, radius) holds as many roots of U as discs
    and lc bounds U's leading coefficient below: lc times, for each
    cluster, the distance of its nearest disc from the interval to the
    power of its size, or 0."""
    floor = lc
    for cluster in clusters:
        least = math.inf
        for x, y, radius in cluster:
            gap = u0 - x if x < u0 else (x - u1 if x > u1 else 0.0)
            gap = (math.hypot(gap, y) if y else gap) * _DOWN - radius
            if gap < least:
                least = gap
        if not least > 0.0:
            return 0.0
        floor *= least if len(cluster) == 1 else least ** len(cluster)
        if not floor > 2.0 ** -1000:  # a product past the normal doubles
            return 0.0
    return floor * _DOWN


def _certified_brackets(t: _FTerms, s: _Samples, survivors: Sequence[float],
                        coeffs: Sequence[float], roots: Sequence[complex]
                        ) -> Optional[tuple[list, dict]]:
    """(brackets, certificates): the brackets that a scan of f on the
    samples ``s`` finds, proved from the oracle without the scan, and for
    each bracket, by its low end, the pair (slope, eps) of
    :func:`.fcore._slope_bound` for bisection.  None where the proof fails,
    and for a rule with packed samples or a ``table``.

    The scan would find one bracket in the cell of each of ``survivors``,
    no exact zero, no masked sample and no value past the doubles:

    * (C1) :func:`_inclusion_discs` puts the roots of U, formed exactly, in
      discs about ``roots``, U's computed roots, as many in each cluster of
      discs as it has discs; ``coeffs`` are U's doubles, highest degree
      first.
    * (C2) around each survivor, on the samples from the cell below its cell
      to the cell above, _slope_bound gives (slope, eps) with 2 eps < |slope|
      times the least spacing of two samples, so f as computed is strictly
      monotone from sample to sample there, finite and with both radicands
      above 0; f at the ends of the survivor's cell have opposite signs, and
      their product is below 0, as the scan tests it.  So that cell is the
      neighbourhood's one bracket, and no sample there is a zero.
    * (C3) on each stretch of samples between two neighbourhoods, and from
      the window's ends to the first and last (the whole window where there
      is no survivor), :func:`.fcore._f_floor` encloses u and gives the |U|
      beyond which f as computed is nonzero, of the exact f's sign, at every
      double, with f free of zeros on the real stretch; :func:`_u_floor`
      bounds |U| there below by the discs.  So no pair of samples there
      changes sign, none is a zero, and none is masked or leaves the doubles.

    Neighbourhoods may share an end sample but not overlap.  C2 comes first,
    as it fails most often (above mass 1e3 f' has no bound).  A survivor that
    is no root of f (a root of U on the other branch, S < 0, sorted in by
    rounding) has no sign change in its cell.  A root of f that no survivor
    stands for, or a root of U on the other branch, makes C3 fail outside
    the neighbourhoods, and inside one C2 settles the samples alone.  So
    none needs a test of its own.
    """
    if s.slots or s.table is not None:
        return None
    last = s.points - 1
    brackets, certificates, ends = [], {}, [0]  # ends: of the stretches between neighbourhoods
    for e in survivors:
        i = min(max(math.floor((e - s.lo) / s.step), 0), last - 1)  # the cell [i, i + 1]
        a, b = max(i - 1, 0), min(i + 2, last)
        if a < ends[-1]:
            return None
        cert = _slope_bound(t, s.at(a), s.at(b))
        if cert is None or not 2.0 * cert[1] < abs(cert[0]) * s.gap:
            return None
        e0, e1 = s.at(i), s.at(i + 1)
        f0, f1 = _f_point(t, e0)[0], _f_point(t, e1)[0]
        if not f0 * f1 < 0.0:
            return None
        brackets.append((e0, e1, f0, f1))
        certificates[e0] = cert
        ends += [a, b]
    found = _inclusion_discs(t, coeffs, roots)
    if found is None:
        return None
    lc, clusters = found
    for i, j in zip(ends[::2], ends[1::2] + [last]):  # C3 on the samples from i to j
        bounds = _f_floor(t, s.at(i), s.at(j)) if i < j else None
        if i < j and not (bounds and _u_floor(lc, clusters, bounds[0], bounds[1]) > bounds[2]):
            return None
    return brackets, certificates
