"""Spinor components, Jacobi evaluation, normalization, verification.

In the variable s = e^{-2 alpha r} the solved component of a bound state
factorizes as

    psi(s) = B_n s^{sigma nu} (1 - s)^{(1 + mu)/2}
             P_n^{(2 sigma nu, mu)}(1 - 2 s),

with nu = sqrt(c8) >= 0, mu = 2 sqrt(c9), and sigma = +-1 a branch sign:

* ``"decaying"`` (sigma = +1): normalizable, vanishes at both ends of the
  radial axis, carries the n interior nodes expected of the n-th state.
* ``"terminating"`` (sigma = -1): the branch of the parametric method's
  minus-sign convention for sqrt(c8).  It solves the transformed equation
  exactly at a quantized energy but grows like s^{-nu} as r -> infinity.

The residual of the transformed equation therefore certifies an energy
only on the terminating branch, while decay and normalizability hold only
on the decaying branch; the pair of checks discriminates the two.

The unsolved partner component follows from the first-order coupling,
at the mirrored energy x = sigma E of :mod:`.spectrum`,

    partner = [d(solved)/dr - (sigma (kappa + H)/r) solved] / (M - x + sigma C_sym),

with the solved component G (sigma = +1, pseudospin) or F (sigma = -1, spin).

Everything is evaluated from log s = -2 alpha r, never from s itself: far
out s underflows to zero long before s^nu does, and near the origin
1 - s loses digits that -expm1(log s) keeps.  The joint normalization
integral is taken over panels of r at two orders N that must agree, in
one vectorized evaluation: N-point Gauss-Legendre on every panel but the
first, and on the origin panel, where the integrand carries r^(mu - 1), a
product rule for that power at 2N fixed Gauss-Legendre nodes whose
weights come from closed-form moments.  All these rules are built from
the Legendre recurrence, without LAPACK.  The parts of a rule that do not
depend on the state are built once per order, on first use; a table takes
the origin panel's moments once, for both orders.

Each caller evaluates the solved component only up to the derivative order
it reads: ``lower_component`` takes psi; the completion (``_complete``)
takes psi and s psi' over r and the quadrature nodes for the coupled
partner, then, after its norm check, s^2 psi'' on the interior of r alone
for the residual, which ``verify_ode`` computes from these arrays.  So a
spin table evaluates its branch once and a pseudospin table twice, its
lower table and the completion.  ``verify_ode`` called on its own
evaluates the branch itself, and both paths feed one residual core,
``_residual``.  Every evaluation goes through one core, ``_evaluate``:
``BranchFunctions.evaluate`` wraps it, and the completion and
``verify_ode`` call it with the s and 1 - s that the residual's rational
term reads as well.  The core, the Jacobi sums, the completion and the
residual compute in place: each operation of the written-out formulas is
done once, with its operands in their order, into an array the call owns,
so the results, and the first operation to leave the doubles, are those of
the formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    DenominatorNearZero,
    DomainError,
    GridTooCoarse,
    NonNormalizable,
)
from .model import PSEUDOSPIN, SPIN, StateIndex, log_grid, within_doubles
from .nu_core import NuProblem, derive_constants
from .spectrum import EnergyEquation, normal_form

if TYPE_CHECKING:
    from numpy.typing import NDArray

DECAYING = "decaying"
TERMINATING = "terminating"
_BRANCHES = (DECAYING, TERMINATING)

# r_max is chosen so the decaying envelope s^nu has dropped to this level
DECAY_TARGET = 1e-12
# verify_ode needs this many interior grid points
MIN_INTERIOR = 50
# the point count and inner radius of default_grid
DEFAULT_GRID_POINTS = 2000
DEFAULT_R_MIN = 1e-4


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and exponent pair of a Jacobi polynomial P_n^{(a, b)}."""

    n: int
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"degree must be nonnegative, got {self.n!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("Jacobi exponents must be finite")


def _binomial(top: float, k: int) -> float:
    """Binomial coefficient C(top, k) for real top and integer k >= 0: the
    product of (top - k + i)/i over i = 1 .. k, multiplied left to right."""
    value = 1.0
    for i in range(1, k + 1):
        value *= (top - k + i) / i
    return value


def _horner(
    specs: list[tuple[int, float, float]], x: NDArray[np.float64]
) -> list[NDArray[np.float64]]:
    """P_n^{(a, b)}(x) of each (n, a, b) from its explicit sum,

        P_n^{(a, b)}(x) = sum_j C(n + a, n - j) C(n + b, j)
                          ((x - 1)/2)^j ((x + 1)/2)^(n - j),

    summed by Horner's rule in (x + 1)/2, all specs in one pass over the
    shared powers of (x - 1)/2.  Each sum takes the same steps as it would
    alone, so sharing the pass changes no bit of it.  The sums, the power
    and one term buffer are this call's own arrays, updated in place, so a
    step allocates nothing; the first power is (x - 1)/2 itself.  Where
    every degree is 0 there are no powers to share, and none is formed.
    """
    totals = [np.empty_like(x) for _ in specs]
    for (n, a, _), total in zip(specs, totals):
        total.fill(_binomial(n + a, n))
    top = max((n for n, _, _ in specs), default=0)
    if top == 0:
        return totals
    lower = x - 1.0
    lower *= 0.5
    upper = x + 1.0
    upper *= 0.5
    power = lower.copy()
    term = np.empty_like(x)
    for j in range(1, top + 1):
        if j > 1:
            power *= lower
        for (n, a, b), total in zip(specs, totals):
            if j <= n:
                total *= upper
                total += np.multiply(_binomial(n + a, n - j) * _binomial(n + b, j), power, out=term)
    return totals


def jacobi_eval(spec: JacobiSpec, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluate P_n^{(a, b)}(x) from its explicit sum (see ``_horner``).

    Valid for arbitrary real exponents; the classical orthogonality range
    a, b > -1 is not required.  The coefficients are plain products, so
    nothing divides by the factors k + a + b of the three-term recurrence,
    which loses digits as they near zero -- on the terminating branch
    (a = -2 nu < 0) that happens often.  A scalar x gives a scalar.
    """
    return _horner([(spec.n, spec.a, spec.b)], np.asarray(x, dtype=float))[0][()]


def _derivatives(
    spec: JacobiSpec, x: NDArray[np.float64], top: int, low: int = 1
) -> list[NDArray[np.float64]]:
    """d^m/dx^m P_n^{(a, b)}(x) for m = low .. top, from one Horner pass, via
    the degree-lowering identity

        d/dx P_n^{(a, b)} = (n + a + b + 1)/2 * P_{n-1}^{(a+1, b+1)}.

    Orders above n give zeros.  An order's factor and sum do not depend on
    the orders taken with it, so a pass from low > 1 gives the bits of the
    pass from 1.
    """
    n, a, b = spec.n, spec.a, spec.b
    factors: list[float] = []
    lowered: list[tuple[int, float, float]] = []
    factor = 1.0
    for m in range(min(top, n)):
        factor *= 0.5 * (n - m + a + m + b + m + 1.0)
        if m + 1 >= low:
            factors.append(factor)
            lowered.append((n - (m + 1), a + (m + 1), b + (m + 1)))
    sums = _horner(lowered, x)
    for factor, total in zip(factors, sums):
        total *= factor
    return sums + [np.zeros(x.shape) for _ in range(top + 1 - low - len(sums))]


def _s_and_one_minus(log_s: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """s = exp(log_s) and 1 - s = -expm1(log_s), which keeps the digits
    that 1 - s would lose near s = 1."""
    s = np.exp(log_s)
    one_minus = np.expm1(log_s)
    return s, np.negative(one_minus, out=one_minus)


def _evaluate(
    bf: BranchFunctions, log_s: NDArray[np.float64], s: NDArray[np.float64],
    one_minus: NDArray[np.float64], order: int, log_scale: Optional[NDArray[np.float64]] = None,
    deferred: Optional[slice] = None,
) -> tuple:
    """``BranchFunctions.evaluate`` on arrays of one or more dimensions, given
    s = exp(log_s) and 1 - s = -expm1(log_s) as well, which it only reads.

    Each operation of the formulas in ``evaluate`` is done once, with its
    operands in their order, into an array this call owns; 4 s is formed
    once for both terms of order 2 that carry it.  Inside
    ``within_doubles`` the first operation to leave the doubles names the
    error, as it would in the formulas written out.

    With ``deferred``, a slice of the points, order 2 waits: the third term
    returned is a function that, called once, forms s^2 psi'' on those
    points alone from the arrays of orders 0 and 1, with the same
    operations on each point.  The completion calls it on the interior of
    its grid, after its norm check.
    """
    p, t = bf.s_exponent, bf.one_minus_exponent
    x = np.multiply(2.0, s)
    np.subtract(1.0, x, out=x)
    w = jacobi_eval(bf.jacobi, x)
    common = np.multiply(p, log_s)
    log_one_minus = np.log(one_minus)
    common += np.multiply(t, log_one_minus, out=log_one_minus)
    if log_scale is not None:
        common += log_scale
    np.exp(common, out=common)
    psi = np.multiply(common, w)
    if order == 0:
        return (psi,)
    q = np.divide(s, one_minus, out=log_one_minus)  # the log is spent
    t_q = np.multiply(t, q)
    slope = np.subtract(p, t_q)
    (dw,) = _derivatives(bf.jacobi, x, 1)
    s_dpsi = np.multiply(slope, w)
    s_term = np.multiply(2.0, s)
    s_dpsi -= np.multiply(s_term, dw, out=s_term)
    np.multiply(common, s_dpsi, out=s_dpsi)
    if order == 1:
        return psi, s_dpsi
    part = slice(None) if deferred is None else deferred

    def second() -> NDArray[np.float64]:
        # in place on the part's views of q, t_q and s_term, spent by order 1
        s_part, q_part, t_q_part, slope_part = s[part], q[part], t_q[part], slope[part]
        (d2w,) = _derivatives(bf.jacobi, x[part], 2, 2)
        s2_d2psi = np.multiply(slope_part, slope_part)
        s2_d2psi -= p
        s2_d2psi -= np.multiply(t_q_part, q_part, out=q_part)
        s2_d2psi *= w[part]
        four_s = np.multiply(4.0, s_part, out=s_term[part])
        s2_d2psi -= np.multiply(np.multiply(four_s, slope_part, out=t_q_part), dw[part],
                                out=t_q_part)
        four_s *= s_part
        four_s *= d2w
        s2_d2psi += four_s
        np.multiply(common[part], s2_d2psi, out=s2_d2psi)
        return s2_d2psi

    return psi, s_dpsi, (second() if deferred is None else second)


@dataclass(frozen=True)
class BranchFunctions:
    """Analytic solved component of one state on one branch.

    ``evaluate`` gives the function of s and its s-derivatives up to the
    order its caller reads, from log s; everything downstream (radial
    derivatives, coupling, normalization, residuals) chains these.  The
    lower table and ``value`` read psi alone (order 0), ``d_ds`` reads psi
    and s psi' (order 1), and only the residual reads s^2 psi'' (order 2),
    which the completion and ``verify_ode`` form through ``_evaluate`` with
    the s and 1 - s they need themselves.  ``value`` and ``d_ds`` are the
    evaluation taken at s.
    """

    branch: str
    nu: float
    mu: float
    s_exponent: float
    one_minus_exponent: float
    jacobi: JacobiSpec
    problem: NuProblem

    def evaluate(
        self, log_s: NDArray[np.float64], order: int,
        log_scale: Optional[NDArray[np.float64]] = None,
    ) -> tuple[NDArray[np.float64], ...]:
        """psi, s psi' and s^2 psi'' at s = e^{log_s}, primes meaning d/ds,
        up to the given derivative order (0, 1 or 2), each multiplied by
        e^{log_scale} where that is given.

        With W = P_n^{(a, b)}(1 - 2 s), q = s / (1 - s) and the common
        factor e = s^p (1 - s)^t divided out,

            psi       = e W
            s psi'    = e [(p - t q) W - 2 s W']
            s^2 psi'' = e [((p - t q)^2 - p - t q^2) W
                           - 4 s (p - t q) W' + 4 s^2 W''].

        e is formed as exp(p log s + t log(-expm1(log s)) + log_scale), so an
        underflowed s or a negative power of s on the growing branch never
        meets 0 * inf, and a scale that cancels a power of r near the origin
        (``_norm_rules``) is applied before anything leaves the doubles.
        A lower order stops early and returns a bit-identical prefix of the
        full tuple.  Order 0 forms neither q nor W'; order 1 forms q but not
        q^2, which leaves the doubles first as s nears 1 (r near 0).  W' and
        W'' come from one shared Horner pass.  A 0-d log_s is evaluated as
        one element and gives scalars.
        """
        log_s = np.asarray(log_s, dtype=float)
        flat = log_s.reshape(log_s.shape or 1)
        terms = _evaluate(self, flat, *_s_and_one_minus(flat), order, log_scale)
        return terms if log_s.ndim else tuple(term[0] for term in terms)

    def value(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.evaluate(np.log(s), 0)[0]

    def d_ds(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        s = np.asarray(s, dtype=float)
        return self.evaluate(np.log(s), 1)[1] / s


def branch_functions(eq: EnergyEquation, energy: float, branch: str = DECAYING) -> BranchFunctions:
    """Build the solved component's analytic form at a given energy."""
    if branch not in _BRANCHES:
        raise DomainError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    problem = normal_form(eq, energy)
    derived = derive_constants(problem)
    nu = derived.sqrt_c8
    mu = 2.0 * derived.sqrt_c9
    sigma = 1.0 if branch == DECAYING else -1.0
    if branch == DECAYING and nu <= 0.0:
        raise NonNormalizable(
            f"decay exponent nu = {nu!r} vanishes; no normalizable branch at E = {energy!r}"
        )
    return BranchFunctions(
        branch=branch,
        nu=nu,
        mu=mu,
        s_exponent=sigma * nu,
        one_minus_exponent=0.5 * (1.0 + mu),
        jacobi=JacobiSpec(n=eq.state.n, a=sigma * 2.0 * nu, b=mu),
        problem=problem,
    )


def default_grid(
    eq: EnergyEquation,
    energy: float,
    n_points: int = DEFAULT_GRID_POINTS,
    r_min: float = DEFAULT_R_MIN,
) -> NDArray[np.float64]:
    """The :func:`~.model.log_grid` from r_min out to where the decaying tail
    has died: r_max satisfies e^{-2 alpha nu r_max} = DECAY_TARGET.
    """
    nu = derive_constants(normal_form(eq, energy)).sqrt_c8
    return _decay_grid(eq.params.alpha, nu, energy, n_points, r_min)


def _decay_grid(
    alpha: float, nu: float, energy: float, n_points: int = DEFAULT_GRID_POINTS,
    r_min: float = DEFAULT_R_MIN,
) -> NDArray[np.float64]:
    """``default_grid`` for a decay exponent nu that is already known."""
    if nu <= 0.0:
        raise NonNormalizable(f"decay exponent vanishes at E = {energy!r}")
    return log_grid(r_min, math.log(1.0 / DECAY_TARGET) / (2.0 * alpha * nu), n_points)


def _branch_and_grid(
    eq: EnergyEquation, energy: float, branch: str, grid: Optional[NDArray[np.float64]]
) -> tuple[BranchFunctions, NDArray[np.float64]]:
    """The branch at this energy and the grid it is sampled on: ``grid``
    once checked, or the default grid of the branch's own nu."""
    bf = branch_functions(eq, energy, branch)
    if grid is None:
        return bf, _decay_grid(eq.params.alpha, bf.nu, energy)
    return bf, _checked_grid(grid)


def _checked_grid(grid: NDArray[np.float64]) -> NDArray[np.float64]:
    """``grid`` as an array of doubles, once it is a valid radial grid."""
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points")
    # strictly increasing from a positive first radius to a finite last one
    # is finite and positive throughout, and a NaN fails every comparison
    if not (r[0] > 0.0 and math.isfinite(r[-1]) and (r[1:] > r[:-1]).all()):
        raise DomainError("grid must be finite, strictly positive and increasing")
    return r


def _check_interior(count: int) -> None:
    """GridTooCoarse unless a residual has its MIN_INTERIOR interior points."""
    if count < MIN_INTERIOR:
        raise GridTooCoarse(f"{count} interior points < required {MIN_INTERIOR}")


def node_count_of(values: NDArray[np.float64]) -> int:
    """Interior sign changes, ignoring samples below 1e-12 of the peak; the
    samples kept are nonzero, so a sign is whether a sample is positive."""
    values = np.asarray(values, dtype=float)
    size = np.abs(values)
    peak = size.max()
    if peak == 0.0:
        return 0
    positive = values[size > 1e-12 * peak] > 0.0
    return int(np.count_nonzero(positive[:-1] != positive[1:]))


@dataclass(frozen=True)
class WavefunctionTable:
    """Sampled spinor components for one state at one energy.

    ``r`` is the radial grid; s = e^{-2 alpha r} is not stored.  ``g`` is
    the lower component and ``f`` the upper one, both scaled by
    ``norm_constant`` when it is set (joint normalization of the pair,
    integral of G^2 + F^2 over r equal to one).  ``node_count`` counts
    the interior nodes of the solved (dominant) component and
    ``residual_norm`` is the transformed-equation residual of this
    table's own branch; it is small only on the terminating branch.
    """

    state: StateIndex
    symmetry: str
    branch: str
    energy: float
    r: NDArray[np.float64]
    g: NDArray[np.float64]
    f: NDArray[np.float64]
    nu: float
    mu: float
    s_exponent: float
    one_minus_exponent: float
    norm_constant: Optional[float]
    node_count: Optional[int]
    residual_norm: Optional[float]

    @property
    def dominant(self) -> NDArray[np.float64]:
        """The solved component: G in the pseudospin limit, F in the spin one."""
        return self.g if self.symmetry == PSEUDOSPIN else self.f


def lower_component(
    eq: EnergyEquation,
    energy: float,
    grid: Optional[NDArray[np.float64]] = None,
    branch: str = DECAYING,
) -> WavefunctionTable:
    """Unnormalized lower component G of a pseudospin-limit state."""
    if eq.params.symmetry != PSEUDOSPIN:
        raise DomainError("lower_component expects a pseudospin-limit equation")
    bf, r = _branch_and_grid(eq, energy, branch, grid)
    with within_doubles(lambda: f"the lower component on r in [{float(r[0])!r}, "
                                f"{float(r[-1])!r}] at alpha = {eq.params.alpha!r}"):
        (g,) = bf.evaluate(-2.0 * eq.params.alpha * r, 0)
    return WavefunctionTable(
        state=eq.state,
        symmetry=eq.params.symmetry,
        branch=branch,
        energy=energy,
        r=r,
        g=g,
        f=np.zeros_like(g),
        nu=bf.nu,
        mu=bf.mu,
        s_exponent=bf.s_exponent,
        one_minus_exponent=bf.one_minus_exponent,
        norm_constant=None,
        node_count=node_count_of(g),
        residual_norm=None,
    )


def _coupling_denominator(eq: EnergyEquation, energy: float) -> float:
    t = eq.terms
    denom = t.mass - t.mirror * energy + t.c_sym
    if abs(denom) < 1e-8 * t.mass:
        raise DenominatorNearZero(
            f"coupling denominator {denom!r} below 1e-8 * mass at E = {energy!r}"
        )
    return denom


def _legendre_rows(x: NDArray[np.float64], top: int) -> NDArray[np.float64]:
    """P_0 .. P_top at x, one row each, from the three-term recurrence in the
    form P_k = x P_{k-1} + (1 - 1/k)(x P_{k-1} - P_{k-2}), whose rounded
    coefficient multiplies only the small difference near x = +-1."""
    rows = np.empty((top + 1, x.size))
    rows[0] = 1.0
    rows[1] = x
    for k in range(2, top + 1):
        xp = x * rows[k - 1]
        np.add(xp, (1.0 - 1.0 / k) * (xp - rows[k - 2]), out=rows[k])
    return rows


def _frozen(*arrays: NDArray[np.float64]) -> tuple[NDArray[np.float64], ...]:
    """The arrays, read-only: a cache hands the same ones to every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.cache
def _gauss_legendre(n: int) -> tuple[NDArray[np.float64], ...]:
    """Nodes x and weights w of the n-point Gauss-Legendre rule on [-1, 1],
    P_k(x) for k < n in the rows of a third array, and 1 + x, from which a
    panel's nodes are placed.

    Newton's method on P_n from Tricomi's approximate nodes, whose third
    step moves no node by more than a rounding; the weights are
    2 (1 - x^2) / (n (P_{n-1} - x P_n))^2.  The starts come from the C
    library's cos and the steps from +, -, * and / alone, so neither LAPACK
    nor numpy's SIMD kernels reach the rule.  Built once, on first use, so
    a command that builds no table never pays for it.
    """
    x = np.array([(1.0 - (n - 1.0) / (8.0 * n**3)) * math.cos(math.pi * (i + 0.75) / (n + 0.5))
                  for i in range(n)])
    for _ in range(3):
        rows = _legendre_rows(x, n)
        x = x - rows[n] * (1.0 - x) * (1.0 + x) / (n * (rows[n - 1] - x * rows[n]))
    rows = _legendre_rows(x, n)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (rows[n - 1] - x * rows[n])) ** 2
    return _frozen(x, w, rows[:n], 1.0 + x)


# The normalization integral is taken at both orders; they must agree to NORM_RTOL.
NORM_ORDERS = (16, 24)
NORM_RTOL = 1e-10


@functools.cache
def _origin_basis(order: int) -> tuple[NDArray[np.float64], ...]:
    """The 2 order Gauss-Legendre nodes y_j on (0, 1), their logarithms, and
    the basis lambda_j (2k + 1) P_k(2 y_j - 1), k < 2 order, with lambda_j
    the nodes' weights on (0, 1): the parts of the origin panel's product
    rule (``_norm_rules``) that do not depend on the state."""
    x, w, rows, one_plus_x = _gauss_legendre(2 * order)
    y = 0.5 * one_plus_x
    return _frozen(y, np.log(y), (0.5 * w)[:, None] * (2.0 * np.arange(x.size) + 1.0) * rows.T)


def _norm_edges(alpha: float, nu: float, r_max: float) -> NDArray[np.float64]:
    """Panel edges on (0, r_max) for the normalization integral.

    Uniform panels one decay length 1/(2 alpha nu) wide reach down to
    r = decay length (or r_max, if that is shorter): across each the
    envelope s^(+-nu) changes by a factor e, on either branch.  Below it the
    panels shrink by 1/4 toward the origin until the first edge is at most
    1/(2 alpha), the scale of 1 - s.  The interval from 0 to the first
    edge is the origin panel.
    """
    decay = 1.0 / (2.0 * alpha * nu) if nu > 0.0 else math.inf
    top = min(decay, r_max)
    levels = max(0, math.ceil(math.log(2.0 * alpha * top, 4.0)))
    graded = top * 0.25 ** np.arange(levels, -1, -1)
    # np.linspace(top, r_max, panels + 1)[1:] by linspace's own arithmetic:
    # edge k is k * step + top and the last is r_max
    panels = math.ceil((r_max - top) / decay)
    uniform = np.arange(1.0, panels + 1.0) * ((r_max - top) / max(panels, 1)) + top
    uniform[-1:] = r_max
    return np.concatenate([graded, uniform])


def _norm_rules(
    r: NDArray[np.float64], edges: NDArray[np.float64], mu: float, orders: tuple[int, ...]
) -> tuple[NDArray[np.float64], NDArray[np.float64], list[NDArray[np.float64]]]:
    """Every point a table evaluates, their log scales, and each order's
    weights over its own nodes: the points are r, then each order's nodes
    over the origin panel and every panel.

    Near r = 0 the integrand is (r/e0)^(mu - 1) times a function analytic
    in |r| < pi/alpha, with e0 = edges[0].  The origin panel (0, e0) uses
    the product rule for that power, exact on y^(mu - 1) p(y), y = r/e0 and
    deg p < 2 order: at the 2 order Gauss-Legendre nodes y_j, weights
    lambda_j (``_origin_basis``), its weights are

        W_j = lambda_j sum_k (2k + 1) P_k(2 y_j - 1) m_k,
        m_k = int_0^1 y^(mu - 1) P_k(2y - 1) dy
            = prod_{j=1..k} (mu - j) / prod_{j=0..k} (mu + j),

    with mu m_k one cumprod of the ratios (mu - k)/(mu + k) (Gautschi
    2004, ch. 2), whose prefix serves every order.  The components are
    evaluated there with the power divided out: at each origin node the
    log scale is (1 - mu)/2 log(r/e0), so the squares carry
    (r/e0)^(1 - mu) and the weight is the rule's own.  No weight or value
    there leaves the doubles, however large mu is.  The other panels use
    the Gauss-Legendre rule of the order, at log scale 0, and so does r.
    Every point is written once into one array, and the rule parts of an
    order are built on its first use.
    """
    lo = edges[:-1, None]
    half = np.subtract(edges[1:, None], lo)
    half *= 0.5
    origin = edges[0]
    k = np.arange(2.0 * max(orders))
    moments = np.subtract(mu, k)
    moments /= np.add(mu, k, out=k)
    np.multiply.accumulate(moments, out=moments)
    nodes = np.empty(r.size + sum((2 + half.size) * order for order in orders))
    log_scale = np.zeros(nodes.size)
    nodes[: r.size] = r
    weights = []
    start = r.size
    for order in orders:
        _, w, _, one_plus_x = _gauss_legendre(order)
        y, log_y, basis = _origin_basis(order)
        mid, end = start + y.size, start + y.size + half.size * order
        np.multiply(origin, y, out=nodes[start:mid])
        np.multiply(0.5 - 0.5 * mu, log_y, out=log_scale[start:mid])
        panel_nodes = nodes[mid:end].reshape(half.size, order)
        np.add(lo, np.multiply(half, one_plus_x, out=panel_nodes), out=panel_nodes)
        rule = np.empty(end - start)
        origin_weights = basis @ moments[: y.size]
        origin_weights /= mu
        np.multiply(origin, origin_weights, out=rule[: y.size])
        np.multiply(half, w, out=rule[y.size :].reshape(half.size, order))
        weights.append(rule)
        start = end
    return nodes, log_scale, weights


def _complete(
    eq: EnergyEquation, energy: float, bf: BranchFunctions, r: NDArray[np.float64],
    checked: bool,
) -> WavefunctionTable:
    """Normalized (G, F) table of one state on grid r, in either limit.

    The solved component and its first-order coupled partner come from one
    evaluation of the branch over r and the quadrature nodes of both
    NORM_ORDERS (``_norm_rules``), the origin panel's nodes with their log
    scale and the rest unscaled.  The radial derivative uses the chain rule
    d/dr = -2 alpha s d/ds on the analytic s-derivative; no finite
    differences anywhere.  The integral of G^2 + F^2 on (0, r[-1]) is taken
    at both orders; a result that is not finite and positive, or two orders
    that disagree by more than NORM_RTOL, is NonNormalizable.  The solved
    component is G in the pseudospin limit and F in the spin one; the table
    counts its nodes.

    Once the norm is checked, the evaluation goes on to order 2 on the
    interior of r alone, and ``verify_ode`` takes the residual from these
    arrays: a spin table evaluates its branch once, a pseudospin table once
    more than its lower table does.  So that the errors stay those of
    ``verify_ode`` on its own, a grid that is not ``checked`` (a lower
    table's, which the caller can replace) is checked first, then its
    interior count.  The components or the residual leaving the doubles, as
    they do near a tiny r, is a DomainError.
    """
    p = eq.params
    denom = _coupling_denominator(eq, energy)
    low_order, high_order = NORM_ORDERS
    edges = _norm_edges(p.alpha, bf.nu, float(r[-1]))
    at, log_scale, (low_w, high_w) = _norm_rules(r, edges, bf.mu, NORM_ORDERS)
    with np.errstate(over="ignore"):  # inf at an r below about 1e-308, with no warning
        centrifugal = eq.mirror * (eq.state.kappa + p.tensor_h) / at

    def table() -> str:
        return (f"the spinor table on r in [{float(r[0])!r}, {float(r[-1])!r}] "
                f"at alpha = {p.alpha!r}")

    inner = slice(1, r.size - 1)
    with within_doubles(table):
        log_s = -2.0 * p.alpha * at
        s, one_minus = _s_and_one_minus(log_s)
        solved, s_dpsi, second_order = _evaluate(bf, log_s, s, one_minus, 2, log_scale, inner)
        partner = np.multiply(-2.0 * p.alpha, s_dpsi)  # d/dr; s psi' stays for the residual
        partner -= np.multiply(centrifugal, solved, out=centrifugal)
        partner /= denom
    # the density is read on the nodes alone, whose components the table drops
    density, partner_nodes = solved[r.size :], partner[r.size :]
    with np.errstate(over="ignore"):  # an infinite integral is NonNormalizable below
        density *= density
        density += np.multiply(partner_nodes, partner_nodes, out=partner_nodes)
    low = float(low_w @ density[: low_w.size])
    integral = float(high_w @ density[low_w.size :])
    if not (math.isfinite(integral) and integral > 0.0
            and abs(integral - low) <= NORM_RTOL * integral):
        raise NonNormalizable(
            f"normalization integral = {integral!r} at order {high_order}, "
            f"{low!r} at order {low_order}"
        )
    norm = 1.0 / math.sqrt(integral)
    if not checked:
        _checked_grid(r)
    _check_interior(r.size - 2)
    with within_doubles(table):
        evaluated = (bf, s[inner], one_minus[inner], solved[inner], s_dpsi[inner], second_order())
        residual = verify_ode(eq, energy, branch=bf.branch, grid=r, _evaluated=evaluated)
    solved, partner = solved[: r.size], partner[: r.size]
    g, f = (solved, partner) if p.symmetry == PSEUDOSPIN else (partner, solved)
    return WavefunctionTable(
        state=eq.state,
        symmetry=p.symmetry,
        branch=bf.branch,
        energy=energy,
        r=r,
        g=norm * g,
        f=norm * f,
        nu=bf.nu,
        mu=bf.mu,
        s_exponent=bf.s_exponent,
        one_minus_exponent=bf.one_minus_exponent,
        norm_constant=norm,
        node_count=node_count_of(solved),
        residual_norm=residual,
    )


def upper_component_from_lower(
    eq: EnergyEquation, lower: WavefunctionTable
) -> WavefunctionTable:
    """Complete a pseudospin table: derive F, then normalize the pair.

    The table must be one of ``eq``: of its state, and with the nu and mu
    of ``eq``'s branch at the table's energy; DomainError otherwise.
    """
    if eq.params.symmetry != PSEUDOSPIN:
        raise DomainError("upper_component_from_lower expects a pseudospin-limit equation")
    if lower.symmetry != PSEUDOSPIN:
        raise DomainError("lower table was not built in the pseudospin limit")
    if lower.state != eq.state:
        raise DomainError(f"lower table is of state {lower.state!r}, the equation of {eq.state!r}")
    bf = branch_functions(eq, lower.energy, lower.branch)
    if (bf.nu, bf.mu) != (lower.nu, lower.mu):
        raise DomainError(
            f"lower table has nu = {lower.nu!r}, mu = {lower.mu!r}; the equation gives "
            f"nu = {bf.nu!r}, mu = {bf.mu!r} at E = {lower.energy!r}"
        )
    return _complete(eq, lower.energy, bf, lower.r, checked=False)


def spin_limit_components(
    eq: EnergyEquation,
    energy: float,
    grid: Optional[NDArray[np.float64]] = None,
    branch: str = DECAYING,
) -> WavefunctionTable:
    """Full spinor pair of a spin-limit state: solved F, derived G."""
    if eq.params.symmetry != SPIN:
        raise DomainError("spin_limit_components expects a spin-limit equation")
    return _complete(eq, energy, *_branch_and_grid(eq, energy, branch, grid), checked=True)


def pseudospin_components(
    eq: EnergyEquation,
    energy: float,
    grid: Optional[NDArray[np.float64]] = None,
    branch: str = DECAYING,
) -> WavefunctionTable:
    """Convenience wrapper: lower component then completion in one call."""
    return upper_component_from_lower(eq, lower_component(eq, energy, grid, branch))


def verify_ode(
    eq: EnergyEquation,
    energy: float,
    branch: str = TERMINATING,
    grid: Optional[NDArray[np.float64]] = None,
    *,
    _evaluated: Optional[tuple] = None,
) -> float:
    """Max relative residual of the transformed equation on interior points.

    The solved component is plugged into the equation multiplied through
    by s^2,

        s^2 psi'' + s psi' + (-A s^2 + B s - C) / (1 - s)^2 psi = 0,

    and at each interior grid point the absolute residual is divided by
    the largest of the three term magnitudes, a ratio that no common
    factor of the terms changes.  At a true eigenvalue the terminating
    branch drives this below 1e-8; the decaying branch does not satisfy
    this equation and stays at order one, which is exactly what makes the
    (residual, decay) pair discriminate the branches.

    The evaluation or the residual leaving the doubles, as they do near a
    tiny r, is a DomainError naming the grid, as a table on that grid raises
    one, not a number.

    ``_evaluated`` is the completion's alone (``_complete``): its branch
    and the s, 1 - s, psi, s psi' and s^2 psi'' it evaluated on the
    interior of ``grid``, which stand in for this function's own branch,
    grid check and evaluation.  Both feed ``_residual``, the completion's
    under its own ``within_doubles``.
    """
    if _evaluated is not None:
        return _residual(*_evaluated)
    bf, r = _branch_and_grid(eq, energy, branch, grid)
    _check_interior(r.size - 2)
    with within_doubles(lambda: f"the ODE residual on r in [{float(r[0])!r}, {float(r[-1])!r}] "
                                f"at alpha = {eq.params.alpha!r}"):
        log_s = -2.0 * eq.params.alpha * r[1:-1]
        s, one_minus = _s_and_one_minus(log_s)
        return _residual(bf, s, one_minus, *_evaluate(bf, log_s, s, one_minus, 2))


def _residual(
    bf: BranchFunctions, s: NDArray[np.float64], one_minus: NDArray[np.float64],
    psi: NDArray[np.float64], s_dpsi: NDArray[np.float64], s2_d2psi: NDArray[np.float64],
) -> float:
    """``verify_ode``'s residual from the terms at its interior points; s,
    1 - s, s psi' and s^2 psi'' are spent."""
    problem = bf.problem
    # term3 = (-A s^2 + B s - C) / (1 - s)^2 psi, with (1 - s)^2 = expm1(log s)^2
    term3 = np.multiply(-problem.big_a, s)
    term3 *= s
    term3 += np.multiply(problem.big_b, s, out=s)
    term3 -= problem.big_c
    term3 /= np.square(one_minus, out=one_minus)
    term3 *= psi
    residual = np.add(s2_d2psi, s_dpsi)
    residual += term3
    np.abs(residual, out=residual)
    scale = np.abs(s2_d2psi, out=s2_d2psi)
    np.maximum(scale, np.maximum(np.abs(s_dpsi, out=s_dpsi), np.abs(term3, out=term3), out=term3),
               out=scale)
    if not scale.min() > 0.0:
        ok = scale > 0.0
        if not ok.any():
            raise GridTooCoarse("solved component vanished on every interior point")
        residual, scale = residual[ok], scale[ok]
    return float(np.divide(residual, scale, out=residual).max())
