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
equations.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np
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


def _gathered(shared: _FTerms, varies: list[bool], cols: NDArray[np.float64],
             eqs: Sequence[int], counts: Sequence[int]) -> _FTerms:
    """f's constants for consecutive stretches of ``counts`` blocks or
    samples of the equations ``eqs``: those every equation shares as in
    ``shared``, each that ``varies`` repeated from its row of ``cols``."""
    rows = iter(np.repeat(cols[:, eqs], counts, axis=1))
    return _FTerms(*(next(rows) if v else c for v, c in zip(varies, shared)))
