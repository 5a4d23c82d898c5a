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
integral is a fixed-order Gauss rule over panels of r, evaluated in one
vectorized call at two orders that must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DenominatorNearZero,
    DomainError,
    GridTooCoarse,
    NonNormalizable,
)
from .model import PSEUDOSPIN, SPIN, StateIndex
from .nu_core import NuProblem, derive_constants
from .spectrum import EnergyEquation, normal_form

DECAYING = "decaying"
TERMINATING = "terminating"
_BRANCHES = (DECAYING, TERMINATING)

# r_max is chosen so the decaying envelope s^nu has dropped to this level
DECAY_TARGET = 1e-12
# verify_ode needs this many interior grid points
MIN_INTERIOR = 50


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
    """Binomial coefficient C(top, k) for real top and integer k >= 0."""
    return math.prod((top - k + i) / i for i in range(1, k + 1))


def jacobi_eval(spec: JacobiSpec, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluate P_n^{(a, b)}(x) from its explicit sum,

        P_n^{(a, b)}(x) = sum_j C(n + a, n - j) C(n + b, j)
                          ((x - 1)/2)^j ((x + 1)/2)^(n - j),

    summed by Horner's rule in (x + 1)/2.  Valid for arbitrary real
    exponents; the classical orthogonality range a, b > -1 is not required.
    The coefficients are plain products, so nothing divides by the factors
    k + a + b of the three-term recurrence, which loses digits as they near
    zero -- on the terminating branch (a = -2 nu < 0) that happens often.
    """
    x = np.asarray(x, dtype=float)
    n, a, b = spec.n, spec.a, spec.b
    lower = 0.5 * (x - 1.0)
    upper = 0.5 * (x + 1.0)
    total = np.full_like(x, _binomial(n + a, n))
    lower_pow = np.ones_like(x)
    for j in range(1, n + 1):
        lower_pow = lower_pow * lower
        total = total * upper + _binomial(n + a, n - j) * _binomial(n + b, j) * lower_pow
    return total


def jacobi_deriv(spec: JacobiSpec, x: NDArray[np.float64], order: int = 1) -> NDArray[np.float64]:
    """Derivative d^m/dx^m P_n^{(a, b)}(x), via the degree-lowering identity.

    d/dx P_n^{(a, b)} = (n + a + b + 1)/2 * P_{n-1}^{(a+1, b+1)}.
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order!r}")
    x = np.asarray(x, dtype=float)
    n, a, b = spec.n, spec.a, spec.b
    factor = 1.0
    for m in range(order):
        if n - m <= 0:
            return np.zeros_like(x)
        factor *= 0.5 * (n - m + a + m + b + m + 1.0)
    if order == 0:
        return jacobi_eval(spec, x)
    return factor * jacobi_eval(JacobiSpec(n - order, a + order, b + order), x)


@dataclass(frozen=True)
class BranchFunctions:
    """Analytic solved component of one state on one branch.

    ``evaluate`` gives the function of s and its first two s-derivatives
    from log s; everything downstream (radial derivatives, coupling,
    normalization, residuals) chains these.  ``value`` and ``d_ds`` are
    the same evaluation taken at s.
    """

    branch: str
    nu: float
    mu: float
    s_exponent: float
    one_minus_exponent: float
    jacobi: JacobiSpec
    problem: NuProblem

    def evaluate(
        self, log_s: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
        """psi, s psi' and s^2 psi'' at s = e^{log_s}, primes meaning d/ds.

        With W = P_n^{(a, b)}(1 - 2 s), q = s / (1 - s) and the common
        factor e = s^p (1 - s)^t divided out,

            psi       = e W
            s psi'    = e [(p - t q) W - 2 s W']
            s^2 psi'' = e [((p - t q)^2 - p - t q^2) W
                           - 4 s (p - t q) W' + 4 s^2 W''].

        e is formed as exp(p log s + t log(-expm1(log s))), so an underflowed
        s or a negative power of s on the growing branch never meets 0 * inf.
        """
        log_s = np.asarray(log_s, dtype=float)
        s = np.exp(log_s)
        one_minus = -np.expm1(log_s)
        q = s / one_minus
        p, t = self.s_exponent, self.one_minus_exponent
        x = 1.0 - 2.0 * s
        w = jacobi_eval(self.jacobi, x)
        dw = jacobi_deriv(self.jacobi, x)
        d2w = jacobi_deriv(self.jacobi, x, order=2)
        common = np.exp(p * log_s + t * np.log(one_minus))
        slope = p - t * q
        return (
            common * w,
            common * (slope * w - 2.0 * s * dw),
            common * (
                (slope * slope - p - t * q * q) * w
                - 4.0 * s * slope * dw
                + 4.0 * s * s * d2w
            ),
        )

    def value(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.evaluate(np.log(s))[0]

    def d_ds(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        s = np.asarray(s, dtype=float)
        return self.evaluate(np.log(s))[1] / s


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
    n_points: int = 2000,
    r_min: float = 1e-4,
) -> NDArray[np.float64]:
    """Log-spaced radial grid reaching far enough for the decaying tail.

    r_max satisfies e^{-2 alpha nu r_max} = DECAY_TARGET, so the decaying
    envelope is negligible at the last point.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points!r}")
    if not (math.isfinite(r_min) and r_min > 0.0):
        raise DomainError(f"r_min must be finite and positive, got {r_min!r}")
    nu = derive_constants(normal_form(eq, energy)).sqrt_c8
    return _log_grid(eq.params.alpha, nu, energy, n_points, r_min)


def _log_grid(
    alpha: float, nu: float, energy: float, n_points: int = 2000, r_min: float = 1e-4
) -> NDArray[np.float64]:
    """``default_grid`` for a decay exponent nu that is already known."""
    if nu <= 0.0:
        raise NonNormalizable(f"decay exponent vanishes at E = {energy!r}")
    r_max = math.log(1.0 / DECAY_TARGET) / (2.0 * alpha * nu)
    if r_max <= r_min:
        raise DomainError(f"r_max = {r_max!r} does not exceed r_min = {r_min!r}")
    return np.geomspace(r_min, r_max, n_points)


def _branch_and_grid(
    eq: EnergyEquation, energy: float, branch: str, grid: Optional[NDArray[np.float64]]
) -> tuple[BranchFunctions, NDArray[np.float64]]:
    """The branch at this energy and the grid it is sampled on: ``grid``
    once checked, or the default grid of the branch's own nu."""
    bf = branch_functions(eq, energy, branch)
    if grid is None:
        return bf, _log_grid(eq.params.alpha, bf.nu, energy)
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points")
    if not (np.all(np.isfinite(r)) and np.all(r > 0.0) and np.all(np.diff(r) > 0.0)):
        raise DomainError("grid must be finite, strictly positive and increasing")
    return bf, r


def node_count_of(values: NDArray[np.float64]) -> int:
    """Interior sign changes, ignoring samples below 1e-12 of the peak."""
    values = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0
    keep = values[np.abs(values) > 1e-12 * peak]
    if keep.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(keep[:-1]) != np.sign(keep[1:])))


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
    g = bf.evaluate(-2.0 * eq.params.alpha * r)[0]
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
    p = eq.params
    denom = p.mass - eq.mirror * energy + eq.mirror * p.c_sym
    if abs(denom) < 1e-8 * p.mass:
        raise DenominatorNearZero(
            f"coupling denominator {denom!r} below 1e-8 * mass at E = {energy!r}"
        )
    return denom


def _gauss_jacobi(order: int, beta: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gauss rule on [-1, 1] for the weight (1 + x)^beta, beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    polynomials orthogonal under the weight, the weights the squared first
    components of its eigenvectors times the weight's mass
    2^(beta + 1)/(beta + 1).  beta = 0 is Gauss-Legendre.
    """
    k = np.arange(1.0, order)
    two_k = 2.0 * k + beta
    diag = np.empty(order)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (two_k * (two_k + 2.0))
    off = 2.0 * k * (k + beta) / (two_k * np.sqrt(two_k * two_k - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vectors[0] ** 2


# The normalization integral is taken at both orders; they must agree to NORM_RTOL.
NORM_ORDERS = (16, 24)
NORM_RTOL = 1e-10
_LEGENDRE = {order: _gauss_jacobi(order, 0.0) for order in NORM_ORDERS}


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
    uniform = np.linspace(top, r_max, math.ceil((r_max - top) / decay) + 1)
    return np.concatenate([graded, uniform[1:]])


def _norm_rule(
    edges: NDArray[np.float64], mu: float, order: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nodes and weights of one order over the origin panel and every panel.

    Near r = 0 the integrand is r^(mu - 1) times a function analytic in
    |r| < pi/alpha, so the origin panel uses the Gauss-Jacobi rule for
    that power, divided back out of the weights; the rest is
    Gauss-Legendre.
    """
    x, w = _LEGENDRE[order]
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    xj, wj = _gauss_jacobi(order, mu - 1.0)
    origin = 0.5 * edges[0]
    nodes = np.concatenate([origin * (1.0 + xj), (lo + half * (1.0 + x)).ravel()])
    weights = np.concatenate([origin * wj * (1.0 + xj) ** (1.0 - mu), (half * w).ravel()])
    return nodes, weights


def _complete(
    eq: EnergyEquation, energy: float, bf: BranchFunctions, r: NDArray[np.float64]
) -> WavefunctionTable:
    """Normalized (G, F) table of one state on grid r, in either limit.

    The solved component and its first-order coupled partner come from one
    evaluation of the branch over r and the quadrature nodes of both
    NORM_ORDERS.  The radial derivative uses the chain rule
    d/dr = -2 alpha s d/ds on the analytic s-derivative; no finite
    differences anywhere.  The integral of G^2 + F^2 on (0, r[-1]) is taken
    at both orders; a result that is not finite and positive, or two orders
    that disagree by more than NORM_RTOL, is NonNormalizable.  The solved
    component is G in the pseudospin limit and F in the spin one; the table
    counts its nodes.
    """
    p = eq.params
    denom = _coupling_denominator(eq, energy)
    low_order, high_order = NORM_ORDERS
    edges = _norm_edges(p.alpha, bf.nu, float(r[-1]))
    low_r, low_w = _norm_rule(edges, bf.mu, low_order)
    high_r, high_w = _norm_rule(edges, bf.mu, high_order)
    at = np.concatenate([r, low_r, high_r])
    centrifugal = eq.mirror * (eq.state.kappa + p.tensor_h) / at
    solved, s_d_ds, _ = bf.evaluate(-2.0 * p.alpha * at)
    d_dr = -2.0 * p.alpha * s_d_ds
    partner = (d_dr - centrifugal * solved) / denom
    density = solved * solved + partner * partner
    split = r.size + low_r.size
    low = float(low_w @ density[r.size : split])
    integral = float(high_w @ density[split:])
    if not (math.isfinite(integral) and integral > 0.0
            and abs(integral - low) <= NORM_RTOL * integral):
        raise NonNormalizable(
            f"normalization integral = {integral!r} at order {high_order}, "
            f"{low!r} at order {low_order}"
        )
    norm = 1.0 / math.sqrt(integral)
    residual = verify_ode(eq, energy, branch=bf.branch, grid=r)
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
    """Complete a pseudospin table: derive F, then normalize the pair."""
    if eq.params.symmetry != PSEUDOSPIN:
        raise DomainError("upper_component_from_lower expects a pseudospin-limit equation")
    if lower.symmetry != PSEUDOSPIN:
        raise DomainError("lower table was not built in the pseudospin limit")
    return _complete(eq, lower.energy, branch_functions(eq, lower.energy, lower.branch), lower.r)


def spin_limit_components(
    eq: EnergyEquation,
    energy: float,
    grid: Optional[NDArray[np.float64]] = None,
    branch: str = DECAYING,
) -> WavefunctionTable:
    """Full spinor pair of a spin-limit state: solved F, derived G."""
    if eq.params.symmetry != SPIN:
        raise DomainError("spin_limit_components expects a spin-limit equation")
    return _complete(eq, energy, *_branch_and_grid(eq, energy, branch, grid))


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
    """
    bf, r = _branch_and_grid(eq, energy, branch, grid)
    log_s = -2.0 * eq.params.alpha * r[1:-1]
    if log_s.size < MIN_INTERIOR:
        raise GridTooCoarse(
            f"{log_s.size} interior points < required {MIN_INTERIOR}"
        )
    problem = bf.problem
    psi, s_dpsi, s2_d2psi = bf.evaluate(log_s)
    s = np.exp(log_s)
    rational = (
        (-problem.big_a * s * s + problem.big_b * s - problem.big_c)
        / np.expm1(log_s) ** 2
    )
    term3 = rational * psi
    residual = np.abs(s2_d2psi + s_dpsi + term3)
    scale = np.maximum(np.abs(s2_d2psi), np.maximum(np.abs(s_dpsi), np.abs(term3)))
    ok = scale > 0.0
    if not np.any(ok):
        raise GridTooCoarse("solved component vanished on every interior point")
    return float(np.max(residual[ok] / scale[ok]))
