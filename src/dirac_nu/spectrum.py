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

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import (
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
    check_points,
    four_alpha2,
    kappa_to_l_j,
    kappa_to_pseudo_l,
    potential_coeffs,
    within_doubles,
)
from .nu_core import RADICAND_CLAMP, NuProblem

ASSEMBLY_REFERENCE = "reference"
ASSEMBLY_STRICT = "strict"

NEGATIVE = "negative"
POSITIVE = "positive"

# relative tolerance used when matching the polynomial oracle to bisection
ORACLE_MATCH_FACTOR = 1e3
# at most this many bisection steps per root
BISECT_MAX_ITER = 200
# the scan bounds f on about this many blocks of its grid before evaluating any
SCAN_BLOCKS = 64


@dataclass(frozen=True)
class EnergyEquation:
    """Quantization problem for one state in one symmetry limit.

    ``assembly`` selects the spin-limit coupling convention (see module
    docstring); the pseudospin limit accepts only "strict".  ``q`` is the
    tensor-shifted quantum number (Lambda or eta) and ``mirror`` the sign
    sigma taking E to the core's x = sigma E, both fixed at construction,
    as are f's constants ``terms`` and the edges in E of the physical window.
    Those are derived once and checked: a constant past the doubles, a V1 +
    V2 + V3 cancelled to noise or a window wider than the doubles is a
    DomainError naming the parameters.  f, the window, the normal form and
    the oracle read the limit only through these stored constants, which
    take no part in the repr, == or the hash.
    """

    params: ModelParams
    state: StateIndex
    assembly: Optional[str] = None
    q: float = field(init=False)
    coeffs: PotentialCoeffs = field(init=False)
    mirror: float = field(init=False)
    physical_window: tuple[float, float] = field(init=False, repr=False, compare=False)
    terms: _FTerms = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.params.symmetry == PSEUDOSPIN:
            resolved = self.assembly or ASSEMBLY_STRICT
            if resolved != ASSEMBLY_STRICT:
                raise DomainError(
                    f"pseudospin limit has a single assembly {ASSEMBLY_STRICT!r}, "
                    f"got {resolved!r}"
                )
            q, mirror = self.state.lam(self.params.tensor_h), 1.0
        else:
            resolved = self.assembly or ASSEMBLY_REFERENCE
            if resolved not in (ASSEMBLY_REFERENCE, ASSEMBLY_STRICT):
                raise DomainError(f"unknown assembly {resolved!r}")
            q, mirror = self.state.eta(self.params.tensor_h), -1.0
        object.__setattr__(self, "assembly", resolved)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mirror", mirror)
        object.__setattr__(self, "coeffs", potential_coeffs(self.params))
        object.__setattr__(self, "physical_window", _physical_window(self))
        object.__setattr__(self, "terms", _f_terms(self))

    @property
    def scale(self) -> float:
        """Coupling scale multiplying g * V_i (see module docstring)."""
        if self.assembly == ASSEMBLY_REFERENCE:
            return 4.0 * self.params.alpha * self.params.alpha
        return 1.0

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
    t = eq.terms
    x = t.mirror * energy
    w = (x - t.mass - t.c_sym) * eq.scale / t.four_a2
    b = (t.mass + x) * (t.mass - x + t.c_sym) / t.four_a2
    big_a = t.ll_c0 + w * t.v1 + b
    big_b = (eq.q * (eq.q - 1.0) * (2.0 * eq.params.c0 - 1.0) + 2.0 * b
             - w * (t.mirror * eq.coeffs.v2))
    big_c = t.ll_c0 + w * t.v3 + b
    return NuProblem(big_a=big_a, big_b=big_b, big_c=big_c)


def _check_margin(margin: Optional[float]) -> None:
    """The one rule for a window margin: None (1e-9 * mass) or finite and positive."""
    if margin is not None and not (math.isfinite(margin) and margin > 0.0):
        raise DomainError(f"margin must be finite and positive, got {margin!r}")


def _physical_window(eq: EnergyEquation) -> tuple[float, float]:
    """The edges in E where the decay rate vanishes: b2 is a downward parabola
    in x = sigma E with roots -M and M + sigma C_sym, taken back to E, kept by
    EnergyEquation.  A window wider than the doubles is a DomainError."""
    p = eq.params
    x_lo, x_hi = -p.mass, p.mass + eq.mirror * p.c_sym
    lo, hi = (x_lo, x_hi) if eq.mirror > 0.0 else (-x_hi, -x_lo)
    if not math.isfinite(hi - lo):
        raise DomainError(f"mass = {p.mass!r} and c_sym = {p.c_sym!r} make the window "
                          f"({lo!r}, {hi!r}) wider than the doubles")
    return lo, hi


def search_window(eq: EnergyEquation, margin: Optional[float] = None) -> tuple[float, float]:
    """The physical window narrowed by ``margin`` on each side, the interval a
    solve scans and keeps oracle roots in; the margin keeps the scan off the
    exact edges, where the decay exponent vanishes.

    ``margin`` is None (1e-9 * mass) or finite and positive, else DomainError;
    an empty window, or one the margin closes, is NoPhysicalWindow.
    """
    p = eq.params
    _check_margin(margin)
    eps = (1e-9 * p.mass) if margin is None else margin
    core_lo, core_hi = eq.physical_window
    lo, hi = core_lo + eps, core_hi - eps
    if not core_lo < core_hi:
        raise NoPhysicalWindow(
            f"no bound-state window: c_sym={p.c_sym!r} closes the interval "
            f"({lo!r}, {hi!r}) for mass {p.mass!r}"
        )
    if not lo < hi:
        raise NoPhysicalWindow(
            f"no bound-state window: margin={eps!r} on each side closes the interval "
            f"({core_lo!r}, {core_hi!r}) of c_sym={p.c_sym!r} for mass {p.mass!r}"
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


# the terms of _FTerms that can leave the doubles when every parameter is a
# finite double (4 alpha^2 and the V terms are checked where they are made),
# each with its formula and the parameters it is made from
_TERM_SOURCES = {
    "ll_c0": ("q (q - 1) C0", ("tensor_h", "c0")),
    "c9_base": ("(q - 1/2)^2", ("tensor_h",)),
    "w_scale": ("scale / (4 alpha^2)", ("alpha",)),
}


def _f_terms(eq: EnergyEquation) -> _FTerms:
    """The constants of f, kept by EnergyEquation; DomainError naming the
    parameters of any that leaves the doubles."""
    p = eq.params
    c = eq.coeffs
    s = eq.mirror
    four_a2 = four_alpha2(p.alpha)
    try:
        c9_base = (eq.q - 0.5) ** 2
    except OverflowError:
        c9_base = math.inf
    terms = _FTerms(
        mirror=s,
        mass=p.mass,
        c_sym=s * p.c_sym,
        ll_c0=eq.q * (eq.q - 1.0) * p.c0,
        c9_base=c9_base,
        w_scale=eq.scale / four_a2,
        four_a2=four_a2,
        v1=s * c.v1,
        v3=s * c.v3,
        v_total=s * c.total,
        width=2.0 * eq.state.n + 1.0,
        clamp=-4.0 * RADICAND_CLAMP,
    )
    for name, (formula, sources) in _TERM_SOURCES.items():
        value = getattr(terms, name)
        if not math.isfinite(value):
            raise DomainError(f"{_given(p, *sources)} put {formula} = {value!r} past the doubles")
    # V1 + V2 + V3 is -3 alpha^2 / 4 identically; where A dwarfs 4 and 8 the
    # sum cancels to rounding noise, which the oracle divides by
    three_quarters = 0.1875 * four_a2
    if not abs(abs(c.total) - three_quarters) <= 1e-9 * three_quarters:
        raise DomainError(f"{_given(p, 'alpha', 'a_shape')} put V1 + V2 + V3 = {c.total!r}, "
                          f"not -3 alpha^2 / 4 = {-three_quarters!r}")
    return terms


def _given(params: ModelParams, *names: str) -> str:
    """``name = value`` for each named parameter, for an error message."""
    return ", ".join(f"{name} = {getattr(params, name)!r}" for name in names)


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
    s1 += t.ll_c0
    np.multiply(w, t.v3, out=s3)
    s3 += t.ll_c0
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
    for q in (q8, f):  # 4 c8 and 4 c9
        clamped = q < 0.0
        clamped &= q >= t.clamp
        q[clamped] = 0.0
    with np.errstate(invalid="ignore"):
        np.sqrt(out[1:3], out=out[1:3])
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
        ends = np.empty((5, 2, e_lo.size))
        _f_pieces(t, (e_lo, e_hi), ends)
        up, down = ends[3:]
        corners = (up[:, None] * down).reshape(4, -1)
        b = np.array((np.minimum.reduce(corners), np.maximum.reduce(corners)))
        b /= t.four_a2

        low, high = np.minimum(ends[:3, 0], ends[:3, 1]), np.maximum(ends[:3, 0], ends[:3, 1])
        # 4 A and 4 c8 in one (2, 2, n) block: ((w V + ll C0) + b) * 4
        a4_q8 = np.array((low[:2], high[:2]))
        a4_q8 += b[:, None]
        a4_q8 *= 4.0
        a4, q8 = a4_q8[:, 0], a4_q8[:, 1]
        q9 = np.array((low[2], high[2]))

        # W + sqrt(4 c9) - sqrt(4 c8): the low end takes the high 4 c8
        d = np.sqrt(q9)
        d += t.width
        d -= np.sqrt(q8[::-1])
        sq = np.square(d)
        f = np.array((np.minimum(sq[0], sq[1]), np.maximum(sq[0], sq[1])))
        f[0, (d[0] < 0.0) & (d[1] > 0.0)] = 0.0
        f -= a4[::-1]
        return f, q8, q9, a4


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
    """f(E) at a single trial energy in the physical window, edges included;
    the margin of :func:`search_window` narrows only what a solve scans.

    Raises WindowViolation outside the window, NegativeRadicand when a
    square-root argument is negative beyond the clamp tolerance, and
    DomainError naming the parameters when 4 c8, 4 c9, 4 A or f leaves the
    doubles.
    """
    lo, hi = eq.physical_window
    if not lo <= energy <= hi:
        raise WindowViolation(f"energy {energy!r} outside physical window ({lo!r}, {hi!r})")
    f, q8, q9, four_a = _f_point(eq.terms, float(energy))
    if not math.isfinite(f):
        past = [(name, value) for name, value in (("4 c8", q8), ("4 c9", q9), ("4 A", four_a))
                if not math.isfinite(value)]
        if not past and (q8 < 0.0 or q9 < 0.0):
            which = "c8" if q8 < 0.0 else "c9"
            raise NegativeRadicand(which, (q8 if which == "c8" else q9) / 4.0)
        name, value = past[0] if past else ("f", f)
        raise DomainError(
            f"{_given(eq.params, 'mass', 'c_sym', 'tensor_h', 'alpha', 'c0')} put {name} = "
            f"{value!r} past the doubles at energy {energy!r}"
        )
    return f


@dataclass(frozen=True)
class SolveOptions:
    """Settings of the grid-plus-bisection root search.

    The CLI sets ``grid_points``, ``bisect_tol`` and ``margin`` from its
    ``--grid-points``, ``--bisect-tol`` and ``--margin`` options (or a config
    file); ``oracle_check`` keeps its default there.  The benchmark in
    ``perfbench/`` solves with the defaults and, to screen candidate states,
    with ``grid_points=2001, oracle_check=False``.  Bisection stops after
    at most ``BISECT_MAX_ITER`` steps per root.  The scan's samples are a
    rule by index, so ``grid_points`` costs memory and time only in the
    blocks of the window that the scan evaluates.

    Construction raises DomainError unless ``grid_points`` is from 3 to
    ``model.MAX_POINTS``, ``bisect_tol`` is finite and positive, and
    ``margin`` is None (the default, 1e-9 * mass) or finite and positive,
    so bad settings fail before any state is solved.
    """

    grid_points: int = 20001
    bisect_tol: float = 1e-12
    margin: Optional[float] = None
    oracle_check: bool = True

    def __post_init__(self) -> None:
        check_points("grid_points", self.grid_points, 3)
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
    """The roots of the radical-free polynomial U of :func:`quartic_oracle`.

    ``coefficients`` are U's seven coefficients in u = sqrt(4 c9), highest
    degree first, and ``degree`` is 6.  ``all_roots``, ``survivors`` and
    ``spurious`` are energies E, each root u taken to E(u): the survivors
    are the roots of f, ascending; the spurious roots are the rest, complex
    pairs included, in the order of ``all_roots``.
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


def _require_resolvable(energy: float, opts: SolveOptions, params: ModelParams) -> None:
    """Blame an unmatched root on ``bisect_tol`` when no double can meet it.

    Bisection and the oracle each land within about one ulp of a root, so
    a match tolerance below two ulps of it can fail on exact agreement.
    """
    floor = 2.0 * math.ulp(energy)
    if ORACLE_MATCH_FACTOR * opts.bisect_tol < floor:
        raise DomainError(
            f"bisect_tol={opts.bisect_tol!r} is too small to match roots near "
            f"{energy!r} to the oracle; the smallest bisect_tol that always resolves "
            f"them there is {floor / ORACLE_MATCH_FACTOR!r}, for {_given(params, 'mass', 'c_sym')}"
        )


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


class _Scan(NamedTuple):
    """What the sign-change scan of f on its samples finds."""

    brackets: list[tuple[float, float, float, float]]  # (E_i, E_i+1, f_i, f_i+1), ascending
    zeros: list[float]  # sample energies where f is exactly 0, ascending
    masked: int  # samples with a negative radicand


def _scan(t: _FTerms, samples: _Samples, what: Callable[[], str]) -> _Scan:
    """Brackets, exact zeros and masked count of f on ``samples``, the same
    as evaluating f at every sample, without computing most of them.

    The uniform index is cut into about SCAN_BLOCKS blocks that share their
    end samples; a block's packed samples lie between its ends, and
    :func:`_f_bounds` bounds f on it from the two end energies.  A block
    whose f bounds are finite and of one strict sign holds no masked
    sample, no zero and no sign change.  A block whose upper bound on 4 c8
    or 4 c9 is below the clamp is masked at every sample, and finite bounds
    on 4 c8, 4 c9 and 4 A prove that none of its samples leaves the
    doubles.  Only the other blocks' samples are computed and evaluated,
    runs of adjacent blocks together, by :func:`_f_arrays` under
    ``within_doubles(what)``, so a sample whose evaluation leaves the
    doubles raises the same DomainError as in a scan of every sample.
    Brackets pair consecutive samples, so none straddles two runs.
    """
    last = samples.points - 1
    blocks = min(SCAN_BLOCKS, last)
    edges = np.arange(blocks + 1) * last // blocks
    ends = samples.uniform(edges)
    f, q8, q9, a4 = _f_bounds(t, ends[:-1], ends[1:])
    signed = np.isfinite(f).all(axis=0) & ((f[0] > 0.0) | (f[1] < 0.0))
    masked = ((q8[1] < t.clamp) | (q9[1] < t.clamp)) & np.isfinite((q8, q9, a4)).all(axis=(0, 1))
    # block k owns its samples but the last, which the next block owns
    cuts = samples.position(edges)
    owned = cuts[1:] - cuts[:-1]
    owned[-1] += 1
    masked_points = int(owned[masked].sum())

    # runs of adjacent open blocks as [first, last] edge numbers, and the
    # position of each run's last sample among the evaluated energies
    runs: list[list[int]] = []
    for k in np.flatnonzero(~(signed | masked)).tolist():
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    if not runs:
        return _Scan([], [], masked_points)
    run_ends = [end - 1 for end in itertools.accumulate(int(cuts[j] - cuts[i]) + 1
                                                        for i, j in runs)]
    energies = np.concatenate([samples.between(int(edges[i]), int(edges[j])) for i, j in runs])
    # one (5, n) block, not five rows: glibc raises its mmap threshold to the
    # largest block it has freed, so after a solve or two a block this size
    # comes from memory already mapped, while separate rows of that size are
    # trimmed and faulted in again on every solve
    rows = np.empty((5, energies.size))
    with within_doubles(what):
        f = _f_arrays(t, energies, rows)

    # f is finite or NaN (masked): anything else left the doubles and raised.
    # A NaN product is not < 0 and NaN is not == 0, so masked samples make no
    # bracket and no zero.  The product goes into the 4 A row, free once f is
    # done; one past the doubles is +-inf, its sign intact
    with np.errstate(over="ignore"):
        sign_change = np.multiply(f[:-1], f[1:], out=rows[0, :-1]) < 0.0
    sign_change[run_ends[:-1]] = False  # the last point of a run and the first of the next
    brackets = [(float(energies[i]), float(energies[i + 1]), float(f[i]), float(f[i + 1]))
                for i in np.flatnonzero(sign_change)]
    zeros = energies[f == 0.0].tolist()

    # a run's last sample belongs to the block after it, unless it ends the scan
    invalid = np.isnan(f)
    invalid[run_ends[:-1] if runs[-1][1] == blocks else run_ends] = False
    return _Scan(brackets, zeros, masked_points + int(np.count_nonzero(invalid)))


def solve_spectrum(eq: EnergyEquation, opts: SolveOptions = SolveOptions()) -> SpectrumResult:
    """Locate every root of f in the physical window.

    When ``opts.oracle_check`` is on, the polynomial oracle
    (:func:`quartic_oracle`) runs first, so a polynomial it refuses ends the
    solve before the scan.  A scan of ``opts.grid_points`` uniform samples,
    plus samples packed against the radicand zero crossings, where f can
    cross zero inside a sliver narrower than the uniform spacing, then
    brackets the sign changes (samples with negative radicands are masked
    out); each bracket is refined by bisection to ``opts.bisect_tol``.  The
    samples are a rule by index (:func:`_scan_samples`), not an array: the
    scan computes only the samples of the blocks where interval bounds
    cannot prove one strict sign of f or a negative radicand at every
    sample (see :func:`_scan`); no bracket or zero lies in the others, so
    the brackets, zeros and masked count are those of f at every sample,
    bit for bit.

    The bisection roots and the oracle's survivors must match in both
    directions: any unexplained mismatch raises OracleMismatch, and a
    mismatch within two ulps of the root, where ``ORACLE_MATCH_FACTOR *
    opts.bisect_tol`` is too small for doubles to meet, raises DomainError
    instead.  Each root is checked as soon as it is found, ascending, so the
    solve ends at the first root without an oracle partner.
    """
    lo, hi = search_window(eq, opts.margin)
    oracle = quartic_oracle(eq, window=(lo, hi)) if opts.oracle_check else None
    samples = _scan_samples(eq.terms, lo, hi, opts.grid_points)
    scan = _scan(eq.terms, samples, lambda: f"f on the scan of the window ({lo!r}, {hi!r}) at "
                                            f"{_given(eq.params, 'mass', 'c_sym')}")
    tol = ORACLE_MATCH_FACTOR * opts.bisect_tol
    energies: list[float] = []

    def take(e: float) -> None:
        if oracle is not None and not any(abs(e - s) <= tol for s in oracle.survivors):
            _require_resolvable(e, opts, eq.params)
            raise OracleMismatch(f"bisection root {e!r} has no oracle partner within {tol!r}; "
                                 f"oracle survivors: {oracle.survivors!r}")
        energies.append(e)

    # one root per bracket, ascending as the brackets are, and before each the
    # exact zeros of the scan below it (rare but cheap to honor), each unless
    # the bisection root on either side or the last zero kept lies within
    # bisect_tol of it
    z, below, last_zero = 0, [], []
    for k in range(len(scan.brackets) + 1):
        above = [_bisect(eq.terms, *scan.brackets[k], opts)] if k < len(scan.brackets) else []
        while z < len(scan.zeros) and not (above and scan.zeros[z] > above[0]):
            e, z = scan.zeros[z], z + 1
            if not any(abs(e - r) <= opts.bisect_tol for r in below + above + last_zero):
                last_zero = [e]
                take(e)
        if above:
            below = above
            take(above[0])

    for s in oracle.survivors if oracle is not None else ():
        if not any(abs(e - s) <= tol for e in energies):
            _require_resolvable(s, opts, eq.params)
            raise OracleMismatch(
                f"oracle root {s!r} was not found by bisection; bisection roots: {energies!r}"
            )

    # each root is built once, after both routes agree on it
    method = "bisection" if oracle is None else "oracle-confirmed"
    roots: list[EnergyRoot] = []
    for e in energies:
        fe, q8e, q9e, rhse = _f_point(eq.terms, e)
        roots.append(EnergyRoot(energy=e, sign_class=NEGATIVE if e < 0.0 else POSITIVE,
                                residual=abs(fe), rhs_scale=abs(rhse), radicand_c8=q8e,
                                radicand_c9=q9e, method=method))

    wanted = eq.physical_sign
    candidates = [r for r in roots if r.sign_class == wanted]
    if candidates:
        selected: Optional[EnergyRoot] = min(candidates, key=lambda r: r.energy)
        note = ""
    else:
        selected = None
        note = (
            f"no {wanted} root in window ({lo!r}, {hi!r}); "
            f"{scan.masked} of {samples.size} grid points had negative radicands"
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


def _companion_roots(coeffs: NDArray[np.float64]) -> list[complex]:
    """The roots ``np.roots(coeffs)`` returns, in its order: the eigenvalues of
    the companion matrix it builds once leading and trailing zeros are
    stripped, then a 0 for each trailing zero, without its array checks."""
    nonzero = np.flatnonzero(coeffs)
    if not nonzero.size:
        return []
    p = coeffs[nonzero[0]:nonzero[-1] + 1]
    roots: list[complex] = []
    if p.size > 1:
        companion = np.diag(np.ones(p.size - 2), -1)
        companion[0, :] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion).tolist()
    return roots + [0j] * (coeffs.size - 1 - int(nonzero[-1]))


def _polymul(a: list, b: list) -> list:
    """The product of two polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _u_polynomial(t: _FTerms) -> list:
    """U's seven coefficients in u (see :func:`quartic_oracle`), lowest degree
    first, from the constants of f.  The literals are integers, so the
    coefficients are doubles for double constants and exact for
    ``fractions.Fraction`` ones."""
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
    4 c8 is formed as :func:`_f_point` forms it."""
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


def quartic_oracle(
    eq: EnergyEquation,
    window: Optional[tuple[float, float]] = None,
) -> OracleResult:
    """Independent root finder: eliminate the radicals in u = sqrt(4 c9),
    then take the roots np.roots would (:func:`_companion_roots`).

    4 c9 is linear in E, so E is a polynomial in u.  With V = sigma (V1 +
    V2 + V3) of the core, which is -3 alpha^2 / 4 times sigma and never 0,

        w = (u^2 / 4 - (q - 1/2)^2) / V,   x = w / w_scale + M + sigma C,   E = sigma x.

    With W = 2n + 1, v = sqrt(4 c8) and R = 4 A, f = (W + u - v)^2 - R
    vanishes exactly when 2 (W + u) v = S(u), where

        S(u) = (W + u)^2 + 4 c8 - R = (W + u)^2 + 4 sigma (V3 - V1) w,

    and squaring once gives, with Q8 = 4 c8 taken at E(u),

        U(u) = S(u)^2 - 4 (W + u)^2 Q8(u),

    of degree 6, with the positive leading coefficient 1 / (V^2 w_scale^2
    4 alpha^2).  A real root of U with u >= 0 and S(u) >= 0 is a root of f,
    with no tolerance: v = S / (2 (W + u)) is then the nonnegative square
    root of 4 c8.  A root with u < 0 is a root of U(-u), which E(u) also
    maps to, and one with S < 0 solves (W + u + v)^2 = R instead.  The
    survivors are the real roots with u >= 0 and S(u) >= 0 whose E lies in
    ``window`` (any E if it is None) and where f is defined: the tie rule
    for S or a radicand about 0 (nu -> 0 at a radicand boundary) is that a
    root where :func:`quantization_function` raises NegativeRadicand or
    WindowViolation is spurious.  Every other root is spurious.

    Each real root is polished by Newton steps on U's factored value, not
    on its coefficients: U_STEPS in u (:func:`_polish_u`), then, for a root
    with u >= 0 and S >= 0, X_STEPS in x with every piece taken from x as f
    takes it (:func:`_polish_x`).  A coefficient past the doubles is a
    DomainError naming the parameters.
    """
    t = eq.terms
    coeffs = _u_polynomial(t)[::-1]  # highest degree first
    if not (coeffs[0] > 0.0 and all(math.isfinite(c) for c in coeffs)):
        raise DomainError(
            f"{_given(eq.params, 'mass', 'c_sym', 'tensor_h', 'alpha', 'c0')} put a "
            f"coefficient of the oracle's polynomial at "
            f"{next((c for c in coeffs if not math.isfinite(c)), coeffs[0])!r}, past the doubles"
        )
    lo, hi = window if window is not None else (-math.inf, math.inf)

    all_roots: list[complex] = []
    survivors: list[float] = []
    spurious: list[complex] = []
    for z in _companion_roots(np.array(coeffs)):
        if z.imag != 0.0:
            w = (0.25 * z * z - t.c9_base) / t.v_total
            all_roots.append(t.mirror * (w / t.w_scale + t.mass + t.c_sym))
            spurious.append(all_roots[-1])
            continue
        u, x, s = _polish_u(t, z.real)
        keep = u >= 0.0 and s >= 0.0
        e = t.mirror * (_polish_x(t, x) if keep else x)
        all_roots.append(complex(e))
        if keep and lo <= e <= hi:
            try:
                quantization_function(eq, e)
            except (WindowViolation, NegativeRadicand):
                pass
            else:
                survivors.append(e)
                continue
        spurious.append(all_roots[-1])
    survivors.sort()

    return OracleResult(
        all_roots=tuple(all_roots),
        survivors=tuple(survivors),
        spurious=tuple(spurious),
        coefficients=tuple(coeffs),
        degree=len(coeffs) - 1,
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
