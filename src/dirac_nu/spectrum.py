"""Energy quantization in the two exact symmetry limits.

For a state (n, kappa) the radial equation, after the substitution
s = e^{-2 alpha r} and the exponential centrifugal surrogate, lands in the
normal form of :mod:`.nu_core` with energy-dependent (A, B, C).  Bound
energies are roots of

    f(E) = (2 n + 1 + 2 sqrt(c9) - 2 sqrt(c8))^2 - 4 A

inside the window where the decay rate b2 is nonnegative.

Both limits evaluate one core, written in the pseudospin form at the
mirrored energy x = sigma E:

    g(x)   = x - M - sigma C_sym
    b2(x)  = (M + x)(M - x + sigma C_sym)

with every V_i taken as sigma V_i.  Only ``EnergyEquation`` reads the limit:

* pseudospin (Sigma = C_sym constant, lower component solved):
  sigma = +1 and q = Lambda = kappa + H; bound states sit at negative E.
* spin (Delta = C_sym constant, upper component solved): sigma = -1 and
  q = eta = kappa + H + 1; bound states sit at positive E.

The spin limit is thus the exact mirror image of the pseudospin one
under (E, C_sym, V) -> (-E, -C_sym, -V).  Negation is exact in floating
point, so the mirror holds bit for bit.

With w = g * scale / (4 alpha^2) and b = b2 / (4 alpha^2) the normal-form
coefficients are

    A = q (q - 1) C0 + w sigma V1 + b
    B = q (q - 1) (2 C0 - 1) + 2 b - w sigma V2
    C = q (q - 1) C0 + w sigma V3 + b

Spin assembly conventions
-------------------------
Two conventions for the spin-limit coupling ``scale`` are supported; both
are the mirror image of the pseudospin core, with their own scale:

* ``"reference"`` (default): scale = 4 alpha^2.  The potential terms enter
  as g * V_i instead of g * V_i / (4 alpha^2).  This convention reproduces
  the spin-limit reference spectra bundled with the package.
* ``"strict"``: scale = 1, the same dimensionally uniform coupling as the
  pseudospin limit.

The distinction is deliberate.  On the 32 bundled spin cells the strict
negative roots sit 2.1e-4 to 9.3e-3 fm^-1 from the stored (reference)
energies, a range ``test_spectrum`` pins, and the positive rows of the
strict table sit 0.026 to 0.049 from theirs; ``dirac-nu table --which spin
--assembly strict`` prints every deviation.  The pseudospin limit has a
single assembly, named "strict".
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateLeadingCoefficient,
    DomainError,
    NegativeRadicand,
    NoPhysicalWindow,
    NoRootFound,
    OracleMismatch,
    WindowViolation,
)
from .model import (
    PSEUDOSPIN,
    SPIN,
    ModelParams,
    PotentialCoeffs,
    StateIndex,
    kappa_to_l_j,
    kappa_to_pseudo_l,
    potential_coeffs,
)
from .nu_core import RADICAND_CLAMP, NuProblem, derive_constants

ASSEMBLY_REFERENCE = "reference"
ASSEMBLY_STRICT = "strict"

NEGATIVE = "negative"
POSITIVE = "positive"

# relative tolerance used when matching the polynomial oracle to bisection
ORACLE_MATCH_FACTOR = 1e3
# an oracle root survives back substitution when |f| <= BACKSUB_REL_TOL * max(1, |4 A|)
BACKSUB_REL_TOL = 1e-6
# at most this many bisection steps per root
BISECT_MAX_ITER = 200
# each thread holds the scan's four rows for grids up to this many points
# (4 MiB); a larger grid gets a block of its own for that solve only
SCAN_WORKSPACE_MAX_POINTS = 2 ** 17


@dataclass(frozen=True)
class EnergyEquation:
    """Quantization problem for one state in one symmetry limit.

    ``assembly`` selects the spin-limit coupling convention (see module
    docstring); the pseudospin limit accepts only "strict".  ``q`` is the
    tensor-shifted quantum number (Lambda or eta) and ``mirror`` the sign
    sigma taking E to the core's x = sigma E, both fixed at construction.
    f, the window, the normal form and the oracle read the limit only
    through these two.
    """

    params: ModelParams
    state: StateIndex
    assembly: Optional[str] = None
    q: float = field(init=False)
    coeffs: PotentialCoeffs = field(init=False)
    mirror: float = field(init=False)

    def __post_init__(self) -> None:
        if self.params.symmetry == PSEUDOSPIN:
            resolved = self.assembly or ASSEMBLY_STRICT
            if resolved != ASSEMBLY_STRICT:
                raise DomainError(
                    f"pseudospin limit has a single assembly {ASSEMBLY_STRICT!r}, "
                    f"got {resolved!r}"
                )
            q = self.state.lam(self.params.tensor_h)
            mirror = 1.0
        else:
            resolved = self.assembly or ASSEMBLY_REFERENCE
            if resolved not in (ASSEMBLY_REFERENCE, ASSEMBLY_STRICT):
                raise DomainError(f"unknown assembly {resolved!r}")
            q = self.state.eta(self.params.tensor_h)
            mirror = -1.0
        object.__setattr__(self, "assembly", resolved)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mirror", mirror)
        object.__setattr__(self, "coeffs", potential_coeffs(self.params))

    @property
    def scale(self) -> float:
        """Coupling scale multiplying g * V_i (see module docstring)."""
        if self.assembly == ASSEMBLY_REFERENCE:
            return 4.0 * self.params.alpha * self.params.alpha
        return 1.0

    @cached_property
    def _pieces(self) -> tuple[NDArray, NDArray, NDArray]:
        """The polynomial pieces (Q9, Q8, R) of :func:`_poly_pieces`, built on
        first use and shared by the radicand boundaries and the oracle."""
        return _poly_pieces(self)

    @property
    def physical_sign(self) -> str:
        """Sign class of physically selected roots: the core's x = sigma E < 0."""
        return NEGATIVE if self.mirror > 0.0 else POSITIVE


def build_equation(
    params: ModelParams, state: StateIndex, assembly: Optional[str] = None
) -> EnergyEquation:
    """Convenience constructor mirroring EnergyEquation(params, state, assembly)."""
    return EnergyEquation(params=params, state=state, assembly=assembly)


def normal_form(eq: EnergyEquation, energy: float) -> NuProblem:
    """Assemble the normal-form coefficients at a trial energy."""
    p = eq.params
    c = eq.coeffs
    s = eq.mirror
    a2 = p.alpha * p.alpha
    ll = eq.q * (eq.q - 1.0)
    x = s * energy
    w = (x - p.mass - s * p.c_sym) * eq.scale / (4.0 * a2)
    b = (p.mass + x) * (p.mass - x + s * p.c_sym) / (4.0 * a2)
    big_a = ll * p.c0 + w * (s * c.v1) + b
    big_b = ll * (2.0 * p.c0 - 1.0) + 2.0 * b - w * (s * c.v2)
    big_c = ll * p.c0 + w * (s * c.v3) + b
    return NuProblem(big_a=big_a, big_b=big_b, big_c=big_c)


def _check_margin(margin: Optional[float]) -> None:
    """The one rule for a window margin: None (1e-9 * mass) or finite and positive."""
    if margin is not None and not (math.isfinite(margin) and margin > 0.0):
        raise DomainError(f"margin must be finite and positive, got {margin!r}")


def search_window(eq: EnergyEquation, margin: Optional[float] = None) -> tuple[float, float]:
    """Open interval of trial energies with nonnegative decay rate.

    The decay-rate factor b2 is a downward parabola in x = sigma E whose
    roots -M and M + sigma C_sym are the window edges, taken back to E; a
    small margin keeps the solver off the exact edges where the decay
    exponent vanishes.  ``margin`` is None (1e-9 * mass) or finite and
    positive; anything else is a DomainError.
    """
    p = eq.params
    s = eq.mirror
    _check_margin(margin)
    eps = (1e-9 * p.mass) if margin is None else margin
    x_lo, x_hi = -p.mass, p.mass + s * p.c_sym
    lo, hi = (x_lo, x_hi) if s > 0.0 else (-x_hi, -x_lo)
    lo, hi = lo + eps, hi - eps
    if not lo < hi:
        raise NoPhysicalWindow(
            f"no bound-state window: c_sym={p.c_sym!r} closes the interval "
            f"({lo!r}, {hi!r}) for mass {p.mass!r}"
        )
    return lo, hi


class _FTerms(NamedTuple):
    """Per-equation constants of the core f, read by both evaluators below;
    c_sym and the V terms are the core's, already multiplied by sigma."""

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


def _f_terms(eq: EnergyEquation) -> _FTerms:
    p = eq.params
    c = eq.coeffs
    s = eq.mirror
    a2 = p.alpha * p.alpha
    return _FTerms(
        mirror=s,
        mass=p.mass,
        c_sym=s * p.c_sym,
        ll_c0=eq.q * (eq.q - 1.0) * p.c0,
        c9_base=(eq.q - 0.5) ** 2,
        w_scale=eq.scale / (4.0 * a2),
        four_a2=4.0 * a2,
        v1=s * c.v1,
        v3=s * c.v3,
        v_total=s * c.total,
        width=2.0 * eq.state.n + 1.0,
        clamp=-4.0 * RADICAND_CLAMP,
    )


def _f_arrays(
    t: _FTerms, energies: NDArray[np.float64], out: Optional[NDArray[np.float64]] = None
) -> NDArray[np.float64]:
    """Vectorized f with NaN where a radicand is negative.

    Written with in-place ufuncs on the four rows of ``out``, shape
    (4, energies.size), fresh memory when it is None; f is returned in row
    1 and row 0 (4 A) is free afterwards.  Fresh grid-sized buffers cost
    more than the arithmetic: glibc hands freed memory of that size back to
    the OS, so every new buffer is page-faulted in again on first touch.
    Every element sees the IEEE operations of :func:`_f_point` in the same
    order (a + b and b + a round alike), and ``energies`` is only read.
    """
    if out is None:
        out = np.empty((4, energies.size))
    four_a, g, b2, q8 = out
    np.multiply(energies, t.mirror, out=four_a)  # x = sigma E, until M + x
    np.subtract(four_a, t.mass, out=g)
    g -= t.c_sym
    np.subtract(t.mass, four_a, out=b2)
    b2 += t.c_sym
    four_a += t.mass
    b2 *= four_a
    w = g
    w *= t.w_scale
    b = b2
    b /= t.four_a2

    np.multiply(w, t.v1, out=four_a)
    four_a += t.ll_c0
    four_a += b
    np.multiply(w, t.v3, out=q8)
    q8 += t.ll_c0
    q8 += b
    q8 *= 4.0
    # c9 = 1/4 + A - B + C collapses to (q - 1/2)^2 + w * (V1 + V2 + V3)
    q9 = w
    q9 *= t.v_total
    q9 += t.c9_base
    q9 *= 4.0
    for q in (q8, q9):
        clamped = q < 0.0
        clamped &= q >= t.clamp
        q[clamped] = 0.0

    with np.errstate(invalid="ignore"):
        np.sqrt(q9, out=q9)
        np.sqrt(q8, out=q8)
    f = q9
    f += t.width
    f -= q8
    np.square(f, out=f)
    four_a *= 4.0
    f -= four_a
    return f


_scan_workspace = threading.local()


def _scan_rows(points: int) -> NDArray[np.float64]:
    """Four rows of ``points`` doubles for :func:`_f_arrays`: a view of this
    thread's held block, grown to the largest grid seen up to
    ``SCAN_WORKSPACE_MAX_POINTS``, or a block of its own above that."""
    if points > SCAN_WORKSPACE_MAX_POINTS:
        return np.empty((4, points))
    block = getattr(_scan_workspace, "block", None)
    if block is None or block.shape[1] < points:
        block = _scan_workspace.block = np.empty((4, points))
    return block[:, :points]


def _f_point(t: _FTerms, energy: float) -> tuple[float, float, float, float]:
    """Scalar twin of :func:`_f_arrays`: the same IEEE operations in the same
    order on Python floats, so its f is bit-identical to the array one; it also
    returns 4 c8, 4 c9 and 4 A."""
    x = t.mirror * energy
    w = (x - t.mass - t.c_sym) * t.w_scale
    b = (t.mass + x) * (t.mass - x + t.c_sym) / t.four_a2

    big_a = t.ll_c0 + w * t.v1 + b
    q8 = 4.0 * (t.ll_c0 + w * t.v3 + b)
    q9 = 4.0 * (t.c9_base + w * t.v_total)
    if t.clamp <= q8 < 0.0:
        q8 = 0.0
    if t.clamp <= q9 < 0.0:
        q9 = 0.0

    if q8 < 0.0 or q9 < 0.0:
        f = math.nan
    else:
        root_diff = t.width + math.sqrt(q9) - math.sqrt(q8)
        f = root_diff * root_diff - 4.0 * big_a
    return f, q8, q9, 4.0 * big_a


def quantization_function(eq: EnergyEquation, energy: float) -> float:
    """f(E) at a single trial energy inside the search window.

    Raises WindowViolation outside the window and NegativeRadicand when a
    square-root argument is negative beyond the clamp tolerance.
    """
    lo, hi = search_window(eq)
    if not lo <= energy <= hi:
        raise WindowViolation(
            f"energy {energy!r} outside physical window ({lo!r}, {hi!r})"
        )
    f, q8, q9, _ = _f_point(_f_terms(eq), float(energy))
    if not math.isfinite(f):
        which = "c8" if q8 < 0.0 else "c9"
        raise NegativeRadicand(which, (q8 if which == "c8" else q9) / 4.0)
    return f


@dataclass(frozen=True)
class SolveOptions:
    """Settings of the grid-plus-bisection root search.

    The CLI sets ``grid_points``, ``bisect_tol`` and ``margin`` from its
    ``--grid-points``, ``--bisect-tol`` and ``--margin`` options (or a config
    file); ``oracle_check`` keeps its default there.  The benchmark in
    ``perfbench/`` solves with the defaults and, to screen candidate states,
    with ``grid_points=2001, oracle_check=False``.  Bisection stops after
    at most ``BISECT_MAX_ITER`` steps per root.

    Construction raises DomainError unless ``grid_points`` is at least 3,
    ``bisect_tol`` is finite and positive, and ``margin`` is None (the
    default, 1e-9 * mass) or finite and positive, so bad settings fail
    before any state is solved.
    """

    grid_points: int = 20001
    bisect_tol: float = 1e-12
    margin: Optional[float] = None
    oracle_check: bool = True

    def __post_init__(self) -> None:
        if self.grid_points < 3:
            raise DomainError(f"grid_points must be >= 3, got {self.grid_points!r}")
        if not (math.isfinite(self.bisect_tol) and self.bisect_tol > 0.0):
            raise DomainError(
                f"bisect_tol must be finite and positive, got {self.bisect_tol!r}"
            )
        _check_margin(self.margin)


@dataclass(frozen=True)
class EnergyRoot:
    """One root of the quantization condition.

    ``residual`` is |f(E)| after refinement; ``rhs_scale`` the matching
    |4 A(E)| used for relative comparisons; the two radicands are the
    square-root arguments 4 c8 and 4 c9 at the root.
    """

    energy: float
    sign_class: str
    residual: float
    rhs_scale: float
    radicand_c8: float
    radicand_c9: float
    method: str


@dataclass(frozen=True)
class OracleResult:
    """Companion-matrix roots of the radical-free eliminated polynomial.

    Squaring f(E) = 0 twice to clear the two square roots yields a degree-6
    polynomial in E; its roots are a superset of the true roots.  Spurious
    roots (artifacts of squaring, complex pairs, out-of-window reals) are
    reported but flagged.
    """

    all_roots: tuple[complex, ...]
    survivors: tuple[float, ...]
    spurious: tuple[complex, ...]
    coefficients: tuple[float, ...]
    degree: int


@dataclass(frozen=True)
class SpectrumResult:
    """All roots found for one state plus the physical selection."""

    state: StateIndex
    symmetry: str
    assembly: str
    window: tuple[float, float]
    roots: tuple[EnergyRoot, ...]
    selected: Optional[EnergyRoot]
    selection_note: str
    oracle: Optional[OracleResult]


def _bisect(t: _FTerms, a: float, b: float, fa: float, fb: float,
            opts: SolveOptions) -> float:
    """Plain bisection; the grid guarantees fa and fb have opposite signs."""

    def f_of(x: float) -> float:
        return _f_point(t, x)[0]

    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        if (b - a) <= opts.bisect_tol:
            return mid
        if mid == a or mid == b:
            # a and b are adjacent floats: every further step leaves them as
            # they are, so the loop could only end by BISECT_MAX_ITER on this mid
            return mid
        fm = f_of(mid)
        if not math.isfinite(fm):
            # radicand dipped below zero inside the bracket; shrink toward
            # the endpoint that still evaluates
            step = 0.25 * (b - a)
            mid_lo, mid_hi = mid - step, mid + step
            flo, fhi = f_of(mid_lo), f_of(mid_hi)
            if math.isfinite(flo):
                mid, fm = mid_lo, flo
            elif math.isfinite(fhi):
                mid, fm = mid_hi, fhi
            else:
                raise NoRootFound(
                    f"quantization function undefined inside bracket ({a!r}, {b!r})"
                )
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


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


def _radicand_boundaries(eq: EnergyEquation, lo: float, hi: float) -> list[float]:
    """Energies inside (lo, hi) where a radicand crosses zero.

    The radicands 4 c8 and 4 c9 are polynomials in E of degree <= 2, so
    the crossings are exact quadratic (or linear) roots.
    """
    q9, q8, _ = eq._pieces
    return sorted(z for poly in (q8, q9) for z in _real_roots(poly) if lo < z < hi)


def _require_resolvable(energy: float, opts: SolveOptions) -> None:
    """Blame an unmatched root on ``bisect_tol`` when no double can meet it.

    Bisection and the oracle each land within about one ulp of a root, so
    a match tolerance below two ulps of it can fail on exact agreement.
    """
    floor = 2.0 * math.ulp(energy)
    if ORACLE_MATCH_FACTOR * opts.bisect_tol < floor:
        raise DomainError(
            f"bisect_tol={opts.bisect_tol!r} is too small to match roots near "
            f"{energy!r} to the oracle; the smallest bisect_tol that always resolves "
            f"them there is {floor / ORACLE_MATCH_FACTOR!r}"
        )


def solve_spectrum(eq: EnergyEquation, opts: SolveOptions = SolveOptions()) -> SpectrumResult:
    """Locate every root of f in the physical window.

    A uniform scan with ``opts.grid_points`` samples brackets the sign
    changes (points with negative radicands are masked out); each bracket
    is refined by bisection to ``opts.bisect_tol``.  Extra samples are
    packed against the radicand zero crossings, where f can cross zero
    inside a sliver narrower than the uniform spacing.  When
    ``opts.oracle_check`` is on, the bisection roots are cross-checked
    against the eliminated-polynomial oracle and any unexplained mismatch
    raises OracleMismatch; a mismatch within two ulps of the root, where
    ``ORACLE_MATCH_FACTOR * opts.bisect_tol`` is too small for doubles to
    meet, raises DomainError instead.

    The scan works in four rows of grid size taken from a block held per
    thread (``threading.local``), so repeated solves touch memory that is
    already mapped and concurrent solves on different threads never share
    it.  The block grows to the largest grid a thread has scanned, up to
    ``SCAN_WORKSPACE_MAX_POINTS`` (2**17) points, or 4 MiB; at the default
    20001 points a thread holds about 0.6 MiB.  A larger grid is scanned
    in a block of its own, freed with the solve.
    """
    lo, hi = search_window(eq, opts.margin)
    grid = np.linspace(lo, hi, opts.grid_points)
    boundaries = _radicand_boundaries(eq, lo, hi)
    if boundaries:
        span = hi - lo
        offsets = span * np.array([10.0 ** -k for k in range(7, 13)])
        extra = np.concatenate([[b - offsets, b + offsets] for b in boundaries], axis=None)
        extra = np.unique(extra[(extra > lo) & (extra < hi)])
        at = np.searchsorted(grid, extra)
        new = grid[np.minimum(at, grid.size - 1)] != extra
        grid = np.insert(grid, at[new], extra[new])
        if not (grid[1:] > grid[:-1]).all():
            # only a window a few ulps wide makes linspace repeat or misorder
            # samples; np.unique sorts them and drops the repeats
            grid = np.unique(grid)
    terms = _f_terms(eq)
    rows = _scan_rows(grid.size)
    f = _f_arrays(terms, grid, rows)
    valid = np.isfinite(f)

    # the product goes into the 4 A row, free once f is done
    sign_change = np.multiply(f[:-1], f[1:], out=rows[0, :-1]) < 0.0
    both_valid = valid[:-1] & valid[1:]
    bracket_lo = list(np.nonzero(sign_change & both_valid)[0])

    energies: list[float] = []
    for i in bracket_lo:
        root = _bisect(terms, float(grid[i]), float(grid[i + 1]), float(f[i]), float(f[i + 1]), opts)
        energies.append(root)
    # exact zeros on the grid (rare but cheap to honor)
    for i in np.nonzero(valid & (f == 0.0))[0]:
        e = float(grid[i])
        if not any(abs(e - r) <= opts.bisect_tol for r in energies):
            energies.append(e)
    energies.sort()

    roots: list[EnergyRoot] = []
    for e in energies:
        fe, q8e, q9e, rhse = _f_point(terms, e)
        roots.append(
            EnergyRoot(
                energy=e,
                sign_class=NEGATIVE if e < 0.0 else POSITIVE,
                residual=abs(fe),
                rhs_scale=abs(rhse),
                radicand_c8=q8e,
                radicand_c9=q9e,
                method="bisection",
            )
        )

    oracle: Optional[OracleResult] = None
    if opts.oracle_check:
        oracle = quartic_oracle(eq, window=(lo, hi))
        tol = ORACLE_MATCH_FACTOR * opts.bisect_tol
        confirmed: list[EnergyRoot] = []
        for r in roots:
            if any(abs(r.energy - s) <= tol for s in oracle.survivors):
                confirmed.append(replace(r, method="oracle-confirmed"))
            else:
                _require_resolvable(r.energy, opts)
                raise OracleMismatch(
                    f"bisection root {r.energy!r} has no oracle partner within {tol!r}; "
                    f"oracle survivors: {oracle.survivors!r}"
                )
        for s in oracle.survivors:
            if not any(abs(r.energy - s) <= tol for r in roots):
                _require_resolvable(s, opts)
                raise OracleMismatch(
                    f"oracle root {s!r} was not found by bisection; "
                    f"bisection roots: {[r.energy for r in roots]!r}"
                )
        roots = confirmed

    wanted = eq.physical_sign
    candidates = [r for r in roots if r.sign_class == wanted]
    if candidates:
        selected: Optional[EnergyRoot] = min(candidates, key=lambda r: r.energy)
        note = ""
    else:
        selected = None
        masked = int(np.count_nonzero(~valid))
        note = (
            f"no {wanted} root in window ({lo!r}, {hi!r}); "
            f"{masked} of {grid.size} grid points had negative radicands"
        )

    return SpectrumResult(
        state=eq.state,
        symmetry=eq.params.symmetry,
        assembly=eq.assembly,
        window=(lo, hi),
        roots=tuple(roots),
        selected=selected,
        selection_note=note,
        oracle=oracle,
    )


def _poly_pieces(eq: EnergyEquation) -> tuple[NDArray, NDArray, NDArray]:
    """(Q9, Q8, R) = (4 c9, 4 c8, 4 A) as polynomials in E.

    They are the core's pieces (see module docstring) with x = sigma E.

    Each is a long double array of length 3, coefficients lowest degree
    first; Q9 is linear, so its degree-2 entry is a zero.  Extended
    precision because the double squaring in the elimination amplifies
    coefficient roundoff into root shifts of order 1e-9, which double
    precision construction cannot keep below the matching tolerance.
    Callers read the pieces through ``eq._pieces``, which builds them once
    per equation; the arrays are read-only.
    """
    p = eq.params
    c = eq.coeffs
    ld = np.longdouble
    s = ld(eq.mirror)
    alpha = ld(p.alpha)
    a2 = alpha * alpha
    q = ld(eq.q)
    ll = q * (q - 1.0)
    sc = ld(eq.scale) / a2
    mass, c_sym, c0 = ld(p.mass), s * ld(p.c_sym), ld(p.c0)
    v1, v3, total = s * ld(c.v1), s * ld(c.v3), s * (ld(c.v1) + ld(c.v2) + ld(c.v3))

    # g and b2 of the core in x = sigma E, taken to E by scaling their odd
    # coefficients by sigma; the pieces built from them are then in E
    to_e = np.array([ld(1.0), s, ld(1.0)])
    g = np.array([-(mass + c_sym), ld(1.0), ld(0.0)]) * to_e
    b2 = np.array([mass * (mass + c_sym), c_sym, ld(-1.0)]) * to_e

    base = b2 / a2
    base[0] += 4.0 * ll * c0
    q9 = sc * total * g
    q9[0] += (2.0 * q - 1.0) ** 2
    q8 = base + sc * v3 * g
    rr = base + sc * v1 * g
    for piece in (q9, q8, rr):
        piece.flags.writeable = False
    return q9, q8, rr


def _sextic(eq: EnergyEquation) -> NDArray:
    """The eliminated polynomial of :func:`quartic_oracle`, long double
    coefficients lowest degree first.

    Built from the fixed-length pieces in the docstring's order, with
    ``np.convolve`` for products.  Exact trailing zeros are trimmed once,
    at the end, down to one coefficient: the length is the degree built
    plus one, however small the leading coefficient is next to the others.
    """
    q9, q8, rr = eq._pieces
    w = np.longdouble(2 * eq.state.n + 1)
    w2 = np.array([w * w, 0.0, 0.0], dtype=np.longdouble)

    s1 = (w2 + q9) + (q8 - rr)
    # S1 and Q9 are linear, so both products are exactly zero at degree 4
    bracket = np.convolve(s1, s1) - 4.0 * np.convolve(q9, q8)
    bracket[:3] += 4.0 * w * w * q9 - 4.0 * w * w * q8
    t = 2.0 * q8 - s1
    poly = np.convolve(bracket, bracket)
    poly[:7] -= 16.0 * w * w * np.convolve(q9, np.convolve(t, t))
    nonzero = np.flatnonzero(poly)
    return poly[: nonzero[-1] + 1 if nonzero.size else 1]


def quartic_oracle(
    eq: EnergyEquation,
    window: Optional[tuple[float, float]] = None,
) -> OracleResult:
    """Independent root finder: eliminate the radicals, then use np.roots.

    Writing W = 2n + 1, u = sqrt(4 c9), v = sqrt(4 c8) and R = 4 A, the
    condition (W + u - v)^2 = R implies, after isolating and squaring each
    radical in turn,

        S1 := (W^2 + Q9) + (Q8 - R)        (linear in E: the b2 parts cancel)
        S1^2 - 4 Q9 Q8 + 4 W^2 Q9 - 4 W^2 Q8 = 4 W u (2 Q8 - S1)

    and squaring once more gives

        P := (S1^2 - 4 Q9 Q8 + 4 W^2 Q9 - 4 W^2 Q8)^2 - 16 W^2 Q9 (2 Q8 - S1)^2,

    a polynomial of degree 6 whose real roots contain every true root.
    Each candidate is filtered by back substitution into f; the rest are
    reported as spurious.

    The pieces Q9, Q8 and R are the equation's cached ``eq._pieces``, so a
    solve builds them once for both this oracle and the radicand
    boundaries.  :func:`_sextic` builds P from them in long double, in the
    order written above.
    """
    poly = _sextic(eq)
    coeffs_ld = poly[::-1]  # high degree first
    if not coeffs_ld.any():
        raise DegenerateLeadingCoefficient("eliminated polynomial is identically zero")
    degree = coeffs_ld.size - 1
    if degree < 1:
        raise DegenerateLeadingCoefficient(
            f"eliminated polynomial degenerated to degree {degree}"
        )

    # np.roots only handles double precision; its output seeds a Newton
    # polish against the extended precision coefficients (double rounding
    # of the coefficients alone shifts roots by ~1e-9 here)
    coeffs = coeffs_ld.astype(float)
    deriv_ld = np.polyder(coeffs_ld)
    # Horner on long double scalars: the operations np.polyval performs,
    # without its per-call array set-up
    poly_terms, deriv_terms = list(coeffs_ld), list(deriv_ld)

    def horner(terms: list, x: np.longdouble) -> np.longdouble:
        y = np.longdouble(0)
        for c in terms:
            y = y * x + c
        return y

    def polish(z: complex) -> complex:
        if abs(z.imag) > 1e-6 * max(1.0, abs(z.real)):
            return z  # clearly complex; spurious anyway, no polish needed
        x = np.longdouble(z.real)
        for _ in range(6):
            px = horner(poly_terms, x)
            dx = horner(deriv_terms, x)
            if dx == 0:
                break
            step = px / dx
            if abs(horner(poly_terms, x - step)) <= abs(px):
                x = x - step
                if abs(step) < 1e-18 * max(1.0, abs(x)):
                    break
            else:
                break
        return complex(float(x), 0.0)

    all_roots = tuple(polish(complex(z)) for z in np.roots(coeffs))
    terms = _f_terms(eq)
    survivors: list[float] = []
    spurious: list[complex] = []
    for z in all_roots:
        if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)):
            spurious.append(z)
            continue
        e = z.real
        if window is not None and not window[0] <= e <= window[1]:
            spurious.append(z)
            continue
        try:
            fe = quantization_function(eq, e)
        except (WindowViolation, NegativeRadicand):
            spurious.append(z)
            continue
        rhse = _f_point(terms, e)[3]
        if abs(fe) <= BACKSUB_REL_TOL * max(1.0, abs(rhse)):
            survivors.append(e)
        else:
            spurious.append(z)
    survivors.sort()

    return OracleResult(
        all_roots=all_roots,
        survivors=tuple(survivors),
        spurious=tuple(spurious),
        coefficients=tuple(float(x) for x in coeffs),
        degree=degree,
    )


def spin_from_pseudospin_mapping(
    eq: EnergyEquation, assembly: Optional[str] = None
) -> EnergyEquation:
    """Map a pseudospin equation to the spin limit.

    The symmetry swap replaces Lambda = kappa + H with eta = kappa + H + 1
    (the same shift as kappa -> kappa + 1), flips the sign of the symmetry
    constant, and flips the sign convention of (V, E); the state index is
    unchanged.  The mapped equation uses the requested assembly, default
    "reference".
    """
    if eq.params.symmetry != PSEUDOSPIN:
        raise DomainError("spin_from_pseudospin_mapping expects a pseudospin equation")
    params = replace(eq.params, symmetry=SPIN, c_sym=-eq.params.c_sym)
    return EnergyEquation(params=params, state=eq.state, assembly=assembly)


def check_doublet(params: ModelParams, neg: StateIndex, pos: StateIndex) -> None:
    if neg.kappa >= 0 or pos.kappa <= 0:
        raise DomainError(
            f"doublet must pair kappa < 0 with kappa > 0, got {neg.kappa}, {pos.kappa}"
        )
    if neg.n != pos.n:
        raise DomainError(f"states {neg} and {pos} of a doublet must share n")
    if params.symmetry == PSEUDOSPIN:
        if kappa_to_pseudo_l(neg.kappa) != kappa_to_pseudo_l(pos.kappa):
            raise DomainError(
                f"states {neg} and {pos} do not share a pseudo-orbital number"
            )
    else:
        if kappa_to_l_j(neg.kappa)[0] != kappa_to_l_j(pos.kappa)[0]:
            raise DomainError(f"states {neg} and {pos} do not share an orbital number")


@dataclass(frozen=True)
class SplittingReport:
    """Tensor-induced splitting of one degenerate doublet.

    Energies are the negative (hole-side) roots, which exist for every
    bundled state in both limits.  ``delta_e`` is E(kappa > 0 member)
    minus E(kappa < 0 member) at the report's tensor strength, and the
    directions are sign(E_H - E_0) per member.
    """

    tensor_h: float
    state_neg: StateIndex
    state_pos: StateIndex
    label_neg: str
    label_pos: str
    energy_neg: float
    energy_pos: float
    baseline_neg: float
    baseline_pos: float
    delta_e: float
    direction_neg: int
    direction_pos: int


def negative_root(result: SpectrumResult) -> float:
    hits = [r.energy for r in result.roots if r.sign_class == NEGATIVE]
    if not hits:
        raise NoRootFound(
            f"state {result.state} has no negative root; {result.selection_note}"
        )
    return min(hits)


def _doublet_energies(
    params: ModelParams, neg: StateIndex, pos: StateIndex, opts: SolveOptions
) -> tuple[float, float]:
    """Negative-root energies of a checked doublet's members at ``params.tensor_h``.

    At H = 0 the members share n and their q values are q and 1 - q, so
    q (q - 1) and (q - 1/2)^2 agree exactly and they solve one and the
    same equation bit for bit: it is solved once.
    """
    e_neg = negative_root(solve_spectrum(EnergyEquation(params, neg), opts))
    if params.tensor_h == 0.0:
        return e_neg, e_neg
    return e_neg, negative_root(solve_spectrum(EnergyEquation(params, pos), opts))


def splitting_report(
    params: ModelParams,
    state_neg: StateIndex,
    state_pos: StateIndex,
    opts: SolveOptions = SolveOptions(),
) -> SplittingReport:
    """Quantify how the tensor term lifts a doublet degeneracy.

    Solves both members at the configured tensor strength and the H = 0
    baseline, which the two members share (see :func:`_doublet_energies`);
    a nonzero H pushes them to opposite sides of it.
    """
    check_doublet(params, state_neg, state_pos)
    e_neg, e_pos = _doublet_energies(params, state_neg, state_pos, opts)
    baseline, _ = _doublet_energies(replace(params, tensor_h=0.0), state_neg, state_pos, opts)

    def direction(now: float, base: float) -> int:
        diff = now - base
        return 0 if diff == 0.0 else (1 if diff > 0.0 else -1)

    return SplittingReport(
        tensor_h=params.tensor_h,
        state_neg=state_neg,
        state_pos=state_pos,
        label_neg=state_neg.spectroscopic_label(params.symmetry),
        label_pos=state_pos.spectroscopic_label(params.symmetry),
        energy_neg=e_neg,
        energy_pos=e_pos,
        baseline_neg=baseline,
        baseline_pos=baseline,
        delta_e=e_pos - e_neg,
        direction_neg=direction(e_neg, baseline),
        direction_pos=direction(e_pos, baseline),
    )
