"""The energies a solve scans: a rule by index, not an array.

A scan of f(E) over a window takes ``points`` uniform samples, the ones
``np.linspace`` gives, plus samples packed against each energy inside the
window where the radicand 4 c8 or 4 c9 crosses zero, since f can cross
zero inside a sliver narrower than the uniform spacing.  :func:`_scan_samples`
places them all by index, so a scan computes only the samples it reads;
:func:`_scan_grid` builds the same samples as one array, for the few
windows too narrow for the rule and for the tests.  The crossings come in
closed form from the constants of f (``fcore._FTerms``).  :func:`_block_edges`
cuts the uniform index into the blocks on which a scan bounds f.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from .fcore import _FTerms


def _real_roots(poly: NDArray) -> list[float]:
    """Real roots of a polynomial of degree <= 2, coefficients lowest degree
    first, in closed form.

    They are the roots ``np.roots`` finds as companion-matrix eigenvalues:
    leading zeros are dropped, a zero constant term gives a root at exactly
    0, and a complex pair passes, as a double root at its real part, when
    its imaginary part is below 1e-9 of that real part (a double root whose
    discriminant rounded below zero).  Each agrees with its eigenvalue to a
    few ulps, more where b^2 and 4 a c nearly cancel and both lose digits.
    """
    c = [float(x) for x in poly]
    while c and c[-1] == 0.0:
        c.pop()
    if len(c) < 2:
        return []
    roots: list[float] = []
    while c[0] == 0.0:
        c.pop(0)
        roots.append(0.0)
    if len(c) == 2:
        roots.append(-c[0] / c[1])
    elif len(c) == 3:
        cc, b, a = c
        disc = b * b - 4.0 * a * cc
        if disc >= 0.0:
            # the root of larger modulus without cancellation, the other from
            # the product of the roots
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots += [q / a, cc / q]
        else:
            re, im = -b / (2.0 * a), math.sqrt(-disc) / abs(2.0 * a)
            if im < 1e-9 * max(1.0, abs(re)):
                roots += [re, re]
    return roots


def _radicand_polys(t: _FTerms) -> tuple[list[float], list[float]]:
    """4 c9 and 4 c8 as polynomials in the core's x = sigma E, lowest degree
    first, from the constants of f: 4 c9 is linear and 4 c8 quadratic."""
    g0 = -(t.mass + t.c_sym)  # g = x + g0
    q9 = [4.0 * (t.c9_base + g0 * t.w_scale * t.v_total), 4.0 * t.w_scale * t.v_total]
    q8 = [4.0 * (t.ll_c0 + g0 * t.w_scale * t.v3 + t.mass * (t.mass + t.c_sym) / t.four_a2),
          4.0 * (t.w_scale * t.v3 + t.c_sym / t.four_a2), -4.0 / t.four_a2]
    return q9, q8


def _radicand_boundaries(t: _FTerms, lo: float, hi: float) -> list[float]:
    """Energies inside (lo, hi) where a radicand crosses zero: the exact
    linear and quadratic roots of :func:`_radicand_polys`, taken to E."""
    crossings = (t.mirror * z for poly in _radicand_polys(t) for z in _real_roots(poly))
    return sorted(e for e in crossings if lo < e < hi)


# samples are packed this far, in units of the window's width, on either
# side of each radicand zero crossing
_PACKING = tuple(10.0 ** -k for k in range(7, 13))


def _scan_grid(t: _FTerms, lo: float, hi: float, points: int) -> NDArray[np.float64]:
    """The energies a solve scans, as one array: ``points`` uniform samples
    over [lo, hi], plus samples packed against each radicand zero crossing
    inside it.  A solve builds it only where :func:`_scan_samples` cannot
    place samples by index."""
    grid = np.linspace(lo, hi, points)
    boundaries = _radicand_boundaries(t, lo, hi)
    if boundaries:
        span = hi - lo
        offsets = span * np.array(_PACKING)
        extra = np.concatenate([[b - offsets, b + offsets] for b in boundaries], axis=None)
        extra = np.unique(extra[(extra > lo) & (extra < hi)])
        at = np.searchsorted(grid, extra)
        new = grid[np.minimum(at, grid.size - 1)] != extra
        grid = np.insert(grid, at[new], extra[new])
        if not (grid[1:] > grid[:-1]).all():
            # only a window a few ulps wide makes linspace repeat or misorder
            # samples; np.unique sorts them and drops the repeats
            grid = np.unique(grid)
    return grid


class _Samples(NamedTuple):
    """The samples of :func:`_scan_grid` by index, not as an array: uniform
    sample i is i * step + lo and the last is hi, the operations of
    np.linspace, and packed sample extras[k] comes just before uniform
    sample slots[k].  ``table``, where set, holds every sample instead, and
    there are no packed samples."""

    step: float
    points: int  # uniform samples
    lo: float
    hi: float
    slots: list[int]  # ascending
    extras: NDArray[np.float64]
    table: Optional[NDArray[np.float64]] = None

    @property
    def size(self) -> int:
        return self.points + self.extras.size

    def uniform(self, index: NDArray[np.int64]) -> NDArray[np.float64]:
        """The uniform samples at the ascending ``index``."""
        if self.table is not None:
            return self.table[index]
        energies = index * self.step
        energies += self.lo
        if index[-1] == self.points - 1:
            energies[-1] = self.hi
        return energies

    @property
    def gap(self) -> float:
        """Less than the spacing of any two consecutive uniform samples of a
        rule without ``table`` (see :func:`_scan_samples`)."""
        return self.step - 6.0 * math.ulp(max(abs(self.lo), abs(self.hi)))

    def at(self, i: int) -> float:
        """Uniform sample i of a rule without ``table``, as :meth:`uniform` gives it."""
        return self.hi if i == self.points - 1 else i * self.step + self.lo

    def position(self, index: NDArray[np.int64]) -> NDArray[np.int64]:
        """Where the uniform samples at ``index`` sit among all samples."""
        return index + np.searchsorted(self.slots, index, side="right") if self.slots else index

    def between(self, i: int, j: int) -> NDArray[np.float64]:
        """Every sample from uniform sample i to uniform sample j, ascending."""
        energies = self.uniform(np.arange(i, j + 1))
        pieces, at = [], i
        k, stop = bisect.bisect_right(self.slots, i), bisect.bisect_right(self.slots, j)
        while k < stop:  # the packed samples before uniform sample s, slice by slice
            s = self.slots[k]
            end = bisect.bisect_right(self.slots, s, k, stop)
            pieces += [energies[at - i:s - i], self.extras[k:end]]
            at, k = s, end
        return np.concatenate(pieces + [energies[at - i:]]) if pieces else energies


# the scan bounds f on about this many blocks of its grid before evaluating any
SCAN_BLOCKS = 64


@functools.lru_cache(maxsize=32)
def _block_edges(points: int) -> NDArray[np.int64]:
    """The uniform indices that cut a scan of ``points`` samples into about
    SCAN_BLOCKS blocks sharing their end samples; built once per size and
    read-only, as every scan of that size shares them."""
    blocks = min(SCAN_BLOCKS, points - 1)
    edges = np.arange(blocks + 1) * (points - 1) // blocks
    edges.flags.writeable = False
    return edges


def _scan_samples(t: _FTerms, lo: float, hi: float, points: int) -> _Samples:
    """:func:`_scan_grid`'s samples as a rule: the packed ones placed by
    index, the uniform ones never built.

    With M = max(|lo|, |hi|), a step above 8 ulp(M) makes linspace's
    samples strictly ascending: each product i * step, at most about 2 M,
    rounds by under 2 ulp(M) and each sum by at most ulp(M), so consecutive
    samples, the last two included, differ by more than step - 6 ulp(M).
    Each packed sample then goes just before the first uniform sample not
    below it, where _scan_grid's searchsorted puts it: a ceil estimate of
    that index, then a walk of the samples beside it, finds it exactly.  A
    smallest packing offset above 0 keeps -0.0, which a set and np.unique
    may keep in place of 0.0 differently, out of the packed samples.  Only
    a window a few doubles wide fails either test, and it takes
    _scan_grid's array.
    """
    span = hi - lo
    step = span / (points - 1)
    if not (step > 8.0 * math.ulp(max(abs(lo), abs(hi))) and span * _PACKING[-1] > 0.0):
        grid = _scan_grid(t, lo, hi, points)
        return _Samples(step, grid.size, lo, hi, [], np.empty(0), grid)
    last = points - 1

    def sample(i: int) -> float:
        return hi if i == last else i * step + lo

    slots: list[int] = []
    extras: list[float] = []
    at, above = 0, lo  # uniform sample `at`, the first not below the last packed one
    for e in sorted({z for b in _radicand_boundaries(t, lo, hi) for o in _PACKING
                     for z in (b - span * o, b + span * o) if lo < z < hi}):
        if e > above:
            at = min(math.ceil((e - lo) / step), last)
            while sample(at) < e:
                at += 1
            while sample(at - 1) >= e:
                at -= 1
            above = sample(at)
        if e != above:  # a packed sample equal to a uniform one is dropped
            slots.append(at)
            extras.append(e)
    return _Samples(step, points, lo, hi, slots, np.array(extras))
