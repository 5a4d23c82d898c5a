"""The arithmetic of the core f: its per-equation constants and its three
evaluators, which agree bit for bit.

``spectrum`` states f and derives its constants (``_FTerms``).
:func:`_f_arrays` evaluates f on an array of energies, the samples a scan
reads; :func:`_f_bounds` bounds it on intervals of energies, the blocks a
scan settles without evaluating them; :func:`_f_point` evaluates it at one
energy as a Python float, for bisection and each root.  All three take f's
pieces from the same IEEE operations in the same order.  Constants that are
arrays, one value per energy, give each energy the operations that its
scalar constants would; :func:`_gathered` makes them for a batch of
equations.  :func:`_f_rounding` bounds the rounding of the computed f on
one interval of energies and encloses u = sqrt(4 c9) and v = sqrt(4 c8)
there; from it :func:`_slope_bound` bounds f', a certificate that f, as
:func:`_f_point` computes it, is monotone there, and :func:`_f_floor` gives
the |U| beyond which f, as computed, keeps the exact f's sign and is
nonzero there, U being the oracle's radical-free sextic (``sextic``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray


class _FTerms(NamedTuple):
    """Per-equation constants of the core f, read by every evaluator below;
    c_sym and the V terms are the core's, already multiplied by sigma.
    ``spectrum.EnergyEquation`` derives and checks them once."""

    mirror: float  # sigma: the core is evaluated at x = sigma E
    mass: float
    c_sym: float  # sigma C_sym
    ll_c0: float  # q (q - 1) C0
    c9_base: float  # (q - 1/2)^2
    w_scale: float  # scale / (4 alpha^2)
    four_a2: float  # 4 alpha^2
    v1: float  # sigma V1
    v3: float  # sigma V3
    v_total: float  # sigma (V1 + V2 + V3)
    width: float  # 2 n + 1
    clamp: float  # -4 RADICAND_CLAMP


def _f_pieces(t: _FTerms, energies: NDArray[np.float64], out: NDArray[np.float64]) -> None:
    """Write f's five pieces that are monotone in E into the rows of ``out``,
    each of the shape of ``energies``: w V1 + q (q - 1) C0, w V3 + q (q - 1) C0,
    4 c9, M + x and M - x + sigma C.  Both :func:`_f_arrays` and
    :func:`_f_bounds` start here, so the bounds see the points' operations."""
    s1, s3, q9, up, down = out
    x = np.multiply(energies, t.mirror, out=up)  # x = sigma E, until M + x
    np.subtract(t.mass, x, out=down)
    down += t.c_sym
    w = np.subtract(x, t.mass, out=q9)
    w -= t.c_sym
    w *= t.w_scale
    np.multiply(w, t.v1, out=s1)
    np.multiply(w, t.v3, out=s3)
    out[:2] += t.ll_c0
    # c9 = 1/4 + A - B + C collapses to (q - 1/2)^2 + w * (V1 + V2 + V3)
    q9 *= t.v_total
    q9 += t.c9_base
    q9 *= 4.0
    up += t.mass


def _f_arrays(
    t: _FTerms, energies: NDArray[np.float64], out: Optional[NDArray[np.float64]] = None
) -> NDArray[np.float64]:
    """Vectorized f with NaN where a radicand is negative.

    Written with in-place ufuncs on the five rows of ``out``, shape
    (5, energies.size), fresh memory when it is None; f is returned in row
    2 and row 0 (4 A) is free afterwards.  Fresh grid-sized temporaries cost
    more than the arithmetic: glibc hands freed memory of that size back to
    the OS, so each one is page-faulted in again on first touch.
    Every element sees the IEEE operations of :func:`_f_point` in the same
    order (a + b and b + a round alike), and ``energies`` is only read.
    """
    if out is None:
        out = np.empty((5, energies.size))
    _f_pieces(t, energies, out)
    four_a, q8, f, b, down = out
    b *= down
    b /= t.four_a2
    four_a += b
    q8 += b
    out[:2] *= 4.0  # 4 A and 4 c8
    # 4 c8 and 4 c9: NaN below the clamp, where _f_point's f is NaN, then 0
    # in the clamp band; the square root of a NaN raises no invalid flag
    radicands = out[1:3]
    np.copyto(radicands, np.nan, where=radicands < t.clamp)
    np.copyto(radicands, 0.0, where=radicands < 0.0)
    np.sqrt(radicands, out=radicands)
    f += t.width
    f -= q8
    np.square(f, out=f)
    f -= four_a
    return f


def _f_bounds(
    t: _FTerms, e_lo: NDArray[np.float64], e_hi: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Interval twin of :func:`_f_arrays`: bounds of f, 4 c8, 4 c9 and 4 A,
    each a (2, n) array of lows and highs, on the values :func:`_f_arrays`
    computes at every double E with e_lo[i] <= E <= e_hi[i]; the radicand
    bounds are taken before the clamp.

    The pieces at both ends come from :func:`_f_pieces`, as the points' do.
    Each is monotone in E, and rounding to nearest is monotone, so every
    point's piece lies between its values at the two ends with no outward
    rounding; b2 lies between its extreme corner products, and the
    square of an interval across 0 starts at 0.  An end that overflows is
    infinite and one made by inf * 0 or inf - inf is NaN, so finite bounds
    also prove that no value leaves the doubles.  f's bounds are NaN where a
    radicand may be negative, the clamp band included.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        work = np.empty((9, 2, e_lo.size))
        ends, out = work[:5], work[5:]  # out: 4 A, 4 c8, 4 c9 and f
        _f_pieces(t, (e_lo, e_hi), ends)
        np.minimum(ends[:3, 0], ends[:3, 1], out=out[:3, 0])
        np.maximum(ends[:3, 0], ends[:3, 1], out=out[:3, 1])
        # the four corner products of (M + x)(M - x + sigma C), then b2's
        # bounds divided by 4 alpha^2, in rows the pieces no longer need
        corners = np.multiply(ends[3, :, None], ends[4], out=ends[:2]).reshape(4, -1)
        b = ends[2]
        np.minimum.reduce(corners, out=b[0])
        np.maximum.reduce(corners, out=b[1])
        b /= t.four_a2
        # 4 A and 4 c8: ((w V + ll C0) + b) * 4
        out[:2] += b
        out[:2] *= 4.0

        # W + sqrt(4 c9) - sqrt(4 c8): the low end takes the high 4 c8
        d, sq = ends[3], ends[4]
        np.sqrt(out[2], out=d)
        d += t.width
        d -= np.sqrt(out[1, ::-1], out=sq)
        np.square(d, out=sq)
        f = out[3]
        np.minimum(sq[0], sq[1], out=f[0])
        np.maximum(sq[0], sq[1], out=f[1])
        f[0, (d[0] < 0.0) & (d[1] > 0.0)] = 0.0
        f -= out[0, ::-1]
        return f, out[1], out[2], out[0]


def _f_point(t: _FTerms, energy: float) -> tuple[float, float, float, float]:
    """Scalar twin of :func:`_f_arrays`: the same IEEE operations in the same
    order on Python floats, so its f is bit-identical to the array one; it also
    returns 4 c8, 4 c9 and 4 A.  The constants are unpacked first: bisection
    calls it some 45 times a root, and a local is quicker than a field."""
    mirror, mass, c_sym, ll_c0, c9_base, w_scale, four_a2, v1, v3, v_total, width, clamp = t
    x = mirror * energy
    w = (x - mass - c_sym) * w_scale
    b = (mass + x) * (mass - x + c_sym) / four_a2

    big_a = ll_c0 + w * v1 + b
    q8 = 4.0 * (ll_c0 + w * v3 + b)
    q9 = 4.0 * (c9_base + w * v_total)
    if clamp <= q8 < 0.0:
        q8 = 0.0
    if clamp <= q9 < 0.0:
        q9 = 0.0

    if q8 < 0.0 or q9 < 0.0:
        f = math.nan
    else:
        root_diff = width + math.sqrt(q9) - math.sqrt(q8)
        f = root_diff * root_diff - 4.0 * big_a
    return f, q8, q9, 4.0 * big_a


# the unit roundoff of doubles, and the most that one operation whose result
# underflows adds to its error
_ROUND = 2.0 ** -53
_TINY = 2.0 ** -1074


def _f_rounding(t: _FTerms, e0: float, e1: float
                ) -> Optional[tuple[float, float, float, float, float]]:
    """(eps, u_lo, u_hi, v_lo, v_hi) on [e0, e1], e0 < e1, or None where
    they cannot be given: eps bounds |f^ - f| at every double E of the
    interval, f being the exact f of the constants ``t`` and f^ what
    :func:`_f_point` computes, and u and v, the true sqrt(4 c9) and
    sqrt(4 c8), lie in [u_lo, u_hi] and [v_lo, v_hi] on the whole real
    interval, each bound off by a rounding or two.

    The pieces at both ends are formed as :func:`_f_pieces` forms them and
    bounded as :func:`_f_bounds` bounds them (Moore 1966, *Interval
    Analysis*), so q8 and q9 below enclose the computed 4 c8 and 4 c9 at
    every double of the interval.  None unless every end is finite and both
    true radicands stay above 0, so that no value is clamped, masked or
    past the doubles.

    eps, with u = 2^-53, X = max |x| on the interval and P = (|M| + X)(|M| +
    X + |sigma C|) / 4 alpha^2 bounding |b|: each operation rounds by at
    most u times its exact result, plus 2^-1074 where it underflows.  So w
    = (x - M - sigma C) w_scale is off by 3 u w_scale (|M| + X + |sigma C|),
    b = (M + x)(M - x + sigma C) / 4 alpha^2 by 5 u P, and A, 4 c8 and 4 c9
    by what they carry from w and b times V1, V3 and V plus their own
    roundings: at most 6 u, 24 u and 20 u times the sums of their terms'
    magnitudes, taken here as 8 u, 32 u and 24 u.  A square root of a
    computed q >= q_lo > 0 is off by e_q / sqrt(q_lo) plus its rounding,
    W + u - v by both plus two roundings, and the square and f by their
    first-order propagation.  eps is twice that first-order sum, for the
    dropped terms and the bound's own rounding.  4 c9 is linear and b lies
    between its corner products, and each true radicand lies within e_q of
    the computed bounds, which gives u's and v's.
    """
    mirror, mass, c_sym, ll_c0, c9_base, w_scale, four_a2, v1, v3, v_total, width, _ = t
    # the ends in x = sigma E, ascending, and the pieces there as _f_pieces forms them
    x0, x1 = (e0, e1) if mirror > 0.0 else (-e1, -e0)
    w0 = (x0 - mass - c_sym) * w_scale
    w1 = (x1 - mass - c_sym) * w_scale
    up0, up1 = mass + x0, mass + x1  # up0 <= up1 and down0 >= down1
    down0, down1 = mass - x0 + c_sym, mass - x1 + c_sym
    if up0 >= 0.0 and down1 >= 0.0:  # as everywhere in the physical window
        b_lo, b_hi = up0 * down1 / four_a2, up1 * down0 / four_a2
    else:
        corners = (up0 * down0, up0 * down1, up1 * down0, up1 * down1)
        b_lo, b_hi = min(corners) / four_a2, max(corners) / four_a2
    s0, s1 = ll_c0 + w0 * v1, ll_c0 + w1 * v1
    c0, c1 = ll_c0 + w0 * v3, ll_c0 + w1 * v3
    q9_lo, q9_hi = 4.0 * (c9_base + w0 * v_total), 4.0 * (c9_base + w1 * v_total)
    if s0 > s1:
        s0, s1 = s1, s0
    if c0 > c1:
        c0, c1 = c1, c0
    if q9_lo > q9_hi:
        q9_lo, q9_hi = q9_hi, q9_lo
    q8_lo, q8_hi = 4.0 * (c0 + b_lo), 4.0 * (c1 + b_hi)
    # 4 A, 4 c8 and 4 c9 stay in the doubles at every double where their ends
    # do; a comparison passes over a NaN, a sum does not.  x0 + x1 finite
    # keeps every bisection mid of the interval finite
    if not math.isfinite(x0 + x1 + 4.0 * (s0 + b_lo) + 4.0 * (s1 + b_hi)
                         + q8_lo + q8_hi + q9_lo + q9_hi):
        return None

    # magnitudes: of x, of w, of b and of the terms of A, c8 and c9
    near = abs(mass) + (x1 if x1 > -x0 else -x0)
    wide = abs(w_scale) * (near + abs(c_sym))
    prod = near * (near + abs(c_sym)) / four_a2
    m1 = abs(ll_c0) + abs(v1) * wide + prod
    e_a = 8.0 * _ROUND * m1 + (abs(v1) + 3.0) * _TINY
    e_8 = 32.0 * _ROUND * (abs(ll_c0) + abs(v3) * wide + prod) + 4.0 * (abs(v3) + 3.0) * _TINY
    e_9 = 24.0 * _ROUND * (abs(c9_base) + abs(v_total) * wide) + 4.0 * (abs(v_total) + 1.0) * _TINY
    low9, low8 = q9_lo - e_9, q8_lo - e_8
    if not (low9 > 0.0 and low8 > 0.0):
        return None
    # the true u and v, whose bounds also bound the computed ones
    u_lo, u_hi = math.sqrt(low9), math.sqrt(q9_hi + e_9)
    v_lo, v_hi = math.sqrt(low8), math.sqrt(q8_hi + e_8)
    span = width + u_hi + v_hi  # bounds |W + u - v|
    e_d = e_9 / u_lo + e_8 / v_lo + 3.0 * _ROUND * span
    eps = 2.0 * (e_d * (2.0 * span + e_d) + 4.0 * e_a
                 + _ROUND * (2.0 * span * span + 4.0 * m1) + _TINY)
    return (eps, u_lo, u_hi, v_lo, v_hi) if eps < math.inf else None


def _slope_bound(t: _FTerms, e0: float, e1: float) -> Optional[tuple[float, float]]:
    """A certificate that f is strictly monotone on [e0, e1], e0 < e1: the
    pair (slope, eps), or None where it cannot be given.

    |slope| is a lower bound on |f'(E)| over the real interval, its sign
    that of f', for the exact f of the constants ``t``; eps, from
    :func:`_f_rounding`, bounds |f^ - f| at every double E in it, f^ being
    what :func:`_f_point` computes.  So f^(E2) - f^(E1) has the sign of
    slope wherever E2 - E1 > 2 eps / |slope|, and for doubles r and E in the
    interval with |E - r| > (|f^(r)| + 2 eps) / |slope|, f^(E) is nonzero
    with the sign of slope * (E - r).  The pair holds on every subinterval
    too.

    slope: with k = (sigma C - 2 x) / 4 alpha^2, f' in x = sigma E is
    2 (W + u - v)(u' - v') - R' with u' = 2 w_scale V / u, v' = 2 (w_scale
    V3 + k) / v and R' = 4 (w_scale V1 + k).  u and v are enclosed on the
    whole real interval by :func:`_f_rounding`, and k is linear.  Interval
    arithmetic on those encloses f' (Neumaier 1990, *Interval Methods for
    Systems of Equations*).  Its endpoints are computed in round-to-nearest,
    each off by at most some thirty roundings of the magnitudes involved;
    the endpoint nearer 0 is moved toward 0 by 64 u times those magnitudes
    and kept where it stays off 0.
    """
    bounds = _f_rounding(t, e0, e1)
    if bounds is None:
        return None
    eps, u_lo, u_hi, v_lo, v_hi = bounds
    mirror, _, c_sym, _, _, w_scale, four_a2, v1, v3, v_total, width, _ = t
    x0, x1 = (e0, e1) if mirror > 0.0 else (-e1, -e0)
    k_top = (abs(c_sym) + 2.0 * (x1 if x1 > -x0 else -x0)) / four_a2
    a1, a3, a9 = abs(w_scale * v1), abs(w_scale * v3), abs(w_scale * v_total)
    span = width + u_hi + v_hi

    # f' on the real interval, from the enclosures of u, v and k
    k_lo, k_hi = (c_sym - 2.0 * x1) / four_a2, (c_sym - 2.0 * x0) / four_a2
    du = 2.0 * w_scale * v_total
    du_lo, du_hi = (du / u_hi, du / u_lo) if du >= 0.0 else (du / u_lo, du / u_hi)
    dv_lo, dv_hi = 2.0 * (w_scale * v3 + k_lo), 2.0 * (w_scale * v3 + k_hi)
    dv_lo /= v_hi if dv_lo >= 0.0 else v_lo
    dv_hi /= v_lo if dv_hi >= 0.0 else v_hi
    g_lo, g_hi = du_lo - dv_hi, du_hi - dv_lo
    d_lo, d_hi = width + u_lo - v_hi, width + u_hi - v_lo
    if d_lo >= 0.0:
        dg_lo = d_lo * g_lo if g_lo >= 0.0 else d_hi * g_lo
        dg_hi = d_hi * g_hi if g_hi >= 0.0 else d_lo * g_hi
    else:
        dg = (d_lo * g_lo, d_lo * g_hi, d_hi * g_lo, d_hi * g_hi)
        dg_lo, dg_hi = min(dg), max(dg)
    fx_lo = 2.0 * dg_lo - 4.0 * (w_scale * v1 + k_hi)
    fx_hi = 2.0 * dg_hi - 4.0 * (w_scale * v1 + k_lo)
    slack = 64.0 * _ROUND * (4.0 * span * (a9 / u_lo + (a3 + k_top) / v_lo) + 4.0 * (a1 + k_top))
    if fx_lo > slack:
        return mirror * (fx_lo - slack), eps
    if fx_hi < -slack:
        return mirror * (fx_hi + slack), eps
    return None


# bounds computed in round-to-nearest are moved outward by this factor, which
# covers some thousands of roundings
_UP, _DOWN = 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40


def _f_floor(t: _FTerms, e0: float, e1: float) -> Optional[tuple[float, float, float]]:
    """(u_lo, u_hi, need) on [e0, e1], e0 < e1, or None where
    :func:`_f_rounding` gives no bounds: the true u = sqrt(4 c9) lies in
    [u_lo, u_hi] at every real E of the interval, and where the exact U of
    the constants ``t`` (:func:`.sextic._u_polynomial`) has |U(u)| > need
    there, f^ as :func:`_f_point` computes it is nonzero at every double of
    the interval, with the sign of the exact f, and f has no zero in it.

    With a = W + u and v = sqrt(4 c8), U = S^2 - 4 a^2 v^2 and S = f + 2 a
    v, so U = f (f + 4 a v).  Where |f| <= eps, |U| <= eps (eps + 4 a v):
    so |U| > need = eps (eps + 4 (W + u_hi) v_hi) gives |f| > eps >= |f^ -
    f|.  _f_rounding's u_lo and u_hi are each off by a rounding or two, so
    they are moved outward here.
    """
    bounds = _f_rounding(t, e0, e1)
    if bounds is None:
        return None
    eps, u_lo, u_hi, _, v_hi = bounds
    return u_lo * _DOWN, u_hi * _UP, eps * (eps + 4.0 * (t.width + u_hi) * v_hi) * _UP


def _gathered(shared: _FTerms, varies: list[bool], cols: NDArray[np.float64],
             eqs: Sequence[int], counts: Sequence[int]) -> _FTerms:
    """f's constants for consecutive stretches of ``counts`` blocks or
    samples of the equations ``eqs``: those every equation shares as in
    ``shared``, each that ``varies`` repeated from its row of ``cols``."""
    rows = iter(np.repeat(cols[:, eqs], counts, axis=1))
    return _FTerms(*(next(rows) if v else c for v, c in zip(varies, shared)))
