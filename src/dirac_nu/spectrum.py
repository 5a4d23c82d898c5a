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
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    NegativeRadicand,
    NoPhysicalWindow,
    NoRootFound,
    OracleMismatch,
    SolverError,
    WindowViolation,
)
from .model import (
    PSEUDOSPIN,
    SPIN,
    ModelParams,
    PotentialCoeffs,
    StateIndex,
    check_doublet,
    check_points,
    four_alpha2,
    potential_coeffs,
    within_doubles,
)
from .fcore import _f_arrays, _f_bounds, _f_point, _FTerms, _gathered, _slope_bound
from .nu_core import RADICAND_CLAMP, normal_form  # noqa: F401 (the normal form of an equation)
from .sampling import (  # noqa: F401 (the tests reach these through spectrum)
    SCAN_BLOCKS,
    _block_edges,
    _radicand_boundaries,
    _radicand_polys,
    _real_roots,
    _Samples,
    _scan_grid,
    _scan_samples,
)
from .sextic import (
    _certified_brackets,
    _companion_roots,
    _polish_u,
    _polish_x,
    _u_polynomial,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

ASSEMBLY_REFERENCE = "reference"
ASSEMBLY_STRICT = "strict"

NEGATIVE = "negative"
POSITIVE = "positive"

# relative tolerance used when matching the polynomial oracle to bisection
ORACLE_MATCH_FACTOR = 1e3
# at most this many bisection steps per root
BISECT_MAX_ITER = 200
# and at most this many secant steps before a certified bracket's bisection
SECANT_STEPS = 4
# a batch of scans evaluates f on at most this many samples at a time
SCAN_SLICE = 4096
# a batch of solves takes this many equations through its stages at a time:
# their bound pass holds about four times the memory per block that an
# evaluation holds per sample
BATCH_EQUATIONS = SCAN_SLICE // (4 * SCAN_BLOCKS)


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
            opts: SolveOptions, cert: Optional[tuple[float, float]] = None) -> float:
    """Plain bisection; the grid guarantees fa and fb have opposite signs.

    Where :func:`_slope_bound` certifies f strictly monotone on [a, b], the
    same loop runs but evaluates f only at mids near the root.  A few
    secant steps, Newton's method with f' taken from the last two points,
    give a point r of [a, b] where |f(r)| is small.  A mid farther from r
    than rho = 2 (|f(r)| + 2 eps) / |slope| has an f of the sign of slope *
    (mid - r), and that sign is all the loop reads of it; rho is twice the
    distance the certificate needs, so the rounding of mid - r and of rho
    does not matter.  So every step, and the returned double, are the plain
    loop's.  ``cert`` is the caller's certificate of an interval that holds
    [a, b], which holds on the bracket too.  One from a wide interval can
    leave rho far above ``bisect_tol``, and each halving of rho past it
    saves a value of f: where 4 eps / |slope| > 32 bisect_tol, or ``cert``
    is None, [a, b]'s own certificate, which costs about five values of f,
    is computed instead.  A bracket without any, or ``t`` None, takes the
    plain loop.
    """
    tol = opts.bisect_tol
    if t is not None and (cert is None or 4.0 * cert[1] > 32.0 * tol * abs(cert[0])):
        cert = _slope_bound(t, a, b) or cert
    if cert is not None:
        slope, eps = cert
        r, fr = _secant(t, a, b, fa, fb, eps)
        rho = 2.0 * (abs(fr) + 2.0 * eps) / abs(slope)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        if (b - a) <= tol:
            return mid
        if mid == a or mid == b:
            # a and b are adjacent floats: every further step leaves them as
            # they are, so the loop could only end by BISECT_MAX_ITER on this mid
            return mid
        if cert is not None and abs(mid - r) > rho:
            fm = slope if mid > r else -slope
        else:
            fm = _f_point(t, mid)[0]
        if not math.isfinite(fm):
            # radicand dipped below zero inside the bracket; shrink toward
            # the endpoint that still evaluates
            step = 0.25 * (b - a)
            mid_lo, mid_hi = mid - step, mid + step
            flo, fhi = _f_point(t, mid_lo)[0], _f_point(t, mid_hi)[0]
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


def _secant(t: _FTerms, a: float, b: float, fa: float, fb: float,
            eps: float) -> tuple[float, float]:
    """A point r of [a, b] and f(r), |f(r)| as small as SECANT_STEPS secant
    steps from the ends find, stopping once it is at most ``eps``."""
    r, fr = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    p, fp, q, fq = a, fa, b, fb
    for _ in range(SECANT_STEPS):
        if abs(fr) <= eps or fq == fp:
            break
        s = q - fq * (q - p) / (fq - fp)
        if not a < s < b:
            break
        fs = _f_point(t, s)[0]
        p, fp, q, fq = q, fq, s, fs
        if abs(fs) < abs(fr):
            r, fr = s, fs
    return r, fr


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


@dataclass
class _Scan:
    """What the sign-change scan of f on its samples finds, and for a bracket
    that a certificate of f's monotony covers, by its low end, that
    certificate's (slope, eps) (``fcore._slope_bound``), for bisection."""

    brackets: list[tuple[float, float, float, float]]  # (E_i, E_i+1, f_i, f_i+1), ascending
    zeros: list[float]  # sample energies where f is exactly 0, ascending
    masked: int  # samples with a negative radicand
    certified: dict = field(default_factory=dict, repr=False, compare=False)


def _scan(t: _FTerms, samples: _Samples, what: Callable[[], str]) -> _Scan:
    """Brackets, exact zeros and masked count of f on ``samples``, the same
    as evaluating f at every sample, without computing most of them: the
    scan of :func:`_scan_all` for one equation, its DomainError raised."""
    return _one(_scan_all([t], [samples], [what])[0])


def _one(outcome):
    """An outcome of a batch stage: its value, or its SolverError raised."""
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def _settled(t: _FTerms, e_lo: NDArray[np.float64], e_hi: NDArray[np.float64]
             ) -> tuple[NDArray[np.bool_], Optional[NDArray[np.bool_]]]:
    """Which blocks [e_lo, e_hi] the bounds of :func:`_f_bounds` settle: f
    finite and of one strict sign at every sample, or every sample masked,
    with none past the doubles; None for the masked where no block is."""
    f, q8, q9, a4 = _f_bounds(t, e_lo, e_hi)
    finite = np.isfinite(f)
    signed = finite[0] & finite[1]
    signed &= (f[0] > 0.0) | (f[1] < 0.0)
    masked = q8[1] < t.clamp
    masked |= q9[1] < t.clamp
    if not masked.any():
        return signed, None
    masked &= np.isfinite((q8, q9, a4)).all(axis=(0, 1))
    return signed, masked


def _scan_all(
    ts: Sequence[_FTerms], samples: Sequence[_Samples], whats: Sequence[Callable[[], str]]
) -> list[Union[_Scan, DomainError]]:
    """:func:`_scan` of many equations at once: each one's _Scan, or the
    DomainError its own scan raises, bit for bit.

    Each uniform index is cut into about SCAN_BLOCKS blocks that share their
    end samples; a block's packed samples lie between its ends, and
    :func:`_f_bounds` bounds f on it from the two end energies.  A block
    whose f bounds are finite and of one strict sign holds no masked
    sample, no zero and no sign change.  A block whose upper bound on 4 c8
    or 4 c9 is below the clamp is masked at every sample, and finite bounds
    on 4 c8, 4 c9 and 4 A prove that none of its samples leaves the
    doubles.  The other blocks form runs of adjacent blocks.  A run without
    packed samples on which :func:`_slope_bound` proves f strictly monotone
    is settled from f at its ends and at the few samples where it changes
    sign (:func:`_monotone_run`); such a run holds no masked sample and
    none that leaves the doubles, so leaving it out of the evaluation
    changes no error either.  Only the other runs' samples are computed and
    evaluated.  Brackets pair consecutive samples of one run, so none
    straddles two runs or two equations.

    A scan costs some hundred numpy calls on arrays of a few hundred
    elements: per-call overhead, not arithmetic.  So the equations share
    the calls.  One bound pass takes the blocks of every equation, their
    edges end to end so that blocks of two equations are never adjacent,
    and the open samples are evaluated in slices of at most SCAN_SLICE
    samples; a run longer than that is cut into pieces that share their
    end samples.  Where a pass or slice spans equations, each constant of
    f that they do not share is repeated per block or sample (the +, -, *,
    / and sqrt of f round alike with array and scalar operands); a slice
    of one equation takes its constants as scalars.  A slice that leaves
    the doubles evaluates each of its equations alone, over all of that
    equation's open samples in one call under ``within_doubles`` of its
    ``what``, so each raises the DomainError that a scan of every sample
    raises.
    """
    k = len(ts)
    if k == 1:
        (t,), (s,) = ts, samples
        edges = _block_edges(s.points)
        ends, cuts = s.uniform(edges), s.position(edges)
        first = [0, edges.size]  # where each equation's edges start, and the end
        starts, stops = slice(0, -1), slice(1, None)
    else:
        edges = [_block_edges(s.points) for s in samples]
        counts = [e.size - 1 for e in edges]
        ends = np.concatenate([s.uniform(e) for s, e in zip(samples, edges)])
        cuts = np.concatenate([s.position(e) for s, e in zip(samples, edges)])
        edges = np.concatenate(edges)
        first = list(itertools.accumulate((b + 1 for b in counts), initial=0))
        starts = np.ones(edges.size, dtype=bool)
        starts[[f - 1 for f in first[1:]]] = False
        starts = np.flatnonzero(starts)
        stops = starts + 1
        # f's constants that some equations do not share, bit for bit (so
        # that a -0.0 never stands in for a 0.0), by equation
        cols = np.array(ts)
        bits = cols.view(np.int64)
        varies = (bits != bits[0]).any(axis=0).tolist()
        cols = cols[:, varies].T
        t = _gathered(ts[0], varies, cols, range(k), counts)
    signed, masked = _settled(t, ends[starts], ends[stops])
    open_edges = (~signed if masked is None else ~(signed | masked)).nonzero()[0]
    if k > 1:
        open_edges = starts[open_edges]
    # a block owns its samples but the last, which the next block owns; an
    # equation's last block owns its last sample too
    masked_points = [0] * k
    if masked is not None:
        owned = cuts[stops] - cuts[starts]
        owned[[f - 2 - e for e, f in enumerate(first[1:])]] += 1
        owned[~masked] = 0
        masked_points = np.add.reduceat(owned, [f - e for e, f in enumerate(first[:-1])]).tolist()

    # runs of adjacent open blocks as [first, last] edge numbers
    runs: list[list[int]] = []
    for i in open_edges.tolist():
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    # a run without packed samples that f is certified monotone on is
    # settled from a few samples of f (_monotone_run), the others evaluated
    certain: list[tuple[list, list, dict]] = [([], [], {}) for _ in range(k)]
    kept = []
    for i, j in runs:
        e = bisect.bisect_right(first, i) - 1 if k > 1 else 0
        s = samples[e]
        a, b = int(edges[i]), int(edges[j])
        found = (_monotone_run(ts[e], s, a, b, j == first[e + 1] - 1)
                 if s.table is None and cuts[j] - cuts[i] == b - a else None)
        if found is None:
            kept.append([i, j])
        else:
            certain[e][0].extend(found[0])
            certain[e][1].extend(found[1])
            certain[e][2].update((bracket[0], found[2]) for bracket in found[0])
    runs = kept
    if not runs:
        return [_Scan(more, also, m, cert) for (more, also, cert), m in zip(certain, masked_points)]

    # slices of at most SCAN_SLICE samples, each a list of pieces (equation,
    # first and last uniform index, last of its run, its run ends the scan,
    # samples); a run of more samples is cut into pieces of at most that
    # many, each starting at the last uniform sample of the one before
    slices: list[list[tuple]] = [[]]
    total = 0
    for i, j in runs:
        e = bisect.bisect_right(first, i) - 1 if k > 1 else 0
        a, b, size = int(edges[i]), int(edges[j]), int(cuts[j] - cuts[i]) + 1
        closing = j == first[e + 1] - 1
        while True:
            end, count = b, size
            if size > SCAN_SLICE:
                # SCAN_SLICE - 1 - len(slots) steps hold every packed sample
                slots = samples[e].slots
                end = a + SCAN_SLICE - 1 - len(slots)
                count = (end - a + 1 + bisect.bisect_right(slots, end)
                         - bisect.bisect_right(slots, a))
            if total + count > SCAN_SLICE:
                slices.append([])
                total = 0
            slices[-1].append((e, a, end, end == b, closing, count))
            total += count
            if end == b:
                break
            size -= count - 1
            a = end

    brackets: list[list] = [[] for _ in range(k)]
    zeros: list[list] = [[] for _ in range(k)]
    nans = [0] * k

    def evaluate(part, what):
        """f on the samples of the pieces ``part``, and what the scan finds
        there recorded: a FloatingPointError, or with ``what`` its
        DomainError, where a value leaves the doubles."""
        owners = [piece[0] for piece in part]
        single = owners.count(owners[0]) == len(owners)
        if len(part) == 1:
            energies = samples[owners[0]].between(part[0][1], part[0][2])
        else:
            energies = np.concatenate([samples[e].between(a, b) for e, a, b, *_ in part])
        tails = [end - 1 for end in itertools.accumulate(piece[-1] for piece in part)]
        # one (5, n) block, not five rows: glibc raises its mmap threshold to
        # the largest block it has freed, so after a solve or two a block this
        # size comes from memory already mapped, while separate rows of that
        # size are trimmed and faulted in again on every solve
        rows = np.empty((5, energies.size))
        t = ts[owners[0]] if single else _gathered(ts[0], varies, cols, owners,
                                                  [piece[-1] for piece in part])
        with (within_doubles(what) if what is not None
              else np.errstate(over="raise", divide="raise", invalid="raise")):
            f = _f_arrays(t, energies, rows)

        # f is finite or NaN (masked): anything else left the doubles and
        # raised.  A NaN product is not < 0 and NaN is not == 0, so masked
        # samples make no bracket and no zero.  The product goes into the
        # 4 A row, free once f is done; one past the doubles is +-inf, its
        # sign intact
        with np.errstate(over="ignore"):
            sign_change = np.multiply(f[:-1], f[1:], out=rows[0, :-1]) < 0.0
        cut = tails[:-1]  # the last sample of a piece and the first of the next
        changes = [i for i in sign_change.nonzero()[0].tolist() if i not in cut]
        # a piece's last sample is the first of the next piece of its run or,
        # after a run, belongs to the block after it, unless it ends the scan
        again = [end for end, piece in zip(tails, part) if not piece[3]]
        zero_at = [i for i in (f == 0.0).nonzero()[0].tolist() if i not in again]
        invalid = np.isnan(f)
        elsewhere = [end for end, piece in zip(tails, part) if not (piece[3] and piece[4])]
        found = [(float(energies[i]), float(energies[i + 1]), float(f[i]), float(f[i + 1]))
                 for i in changes]
        if single:
            brackets[owners[0]] += found
            zeros[owners[0]] += [float(energies[i]) for i in zero_at]
            nans[owners[0]] += (int(np.count_nonzero(invalid))
                                - sum(bool(invalid[i]) for i in elsewhere))
            return
        for i, bracket in zip(changes, found):
            brackets[owners[bisect.bisect_left(tails, i)]].append(bracket)
        for i in zero_at:
            zeros[owners[bisect.bisect_left(tails, i)]].append(float(energies[i]))
        if elsewhere:
            invalid[elsewhere] = False
        heads = [0] + [end + 1 for end in tails[:-1]]
        for e, count in zip(owners, np.add.reduceat(invalid, heads, dtype=np.int64).tolist()):
            nans[e] += count

    failed: dict[int, DomainError] = {}
    alone: set[int] = set()  # equations scanned on their own after a slice raised
    for part in slices:
        part = [piece for piece in part if piece[0] not in alone] if alone else part
        if not part:
            continue
        try:
            evaluate(part, None)
        except FloatingPointError:
            for e in sorted({piece[0] for piece in part}):
                alone.add(e)
                brackets[e], zeros[e], nans[e] = [], [], 0
                # all its runs, uncut, in one evaluation
                whole = [(e, int(edges[i]), int(edges[j]), True, j == first[e + 1] - 1,
                          int(cuts[j] - cuts[i]) + 1)
                         for i, j in runs if first[e] <= i < first[e + 1]]
                try:
                    evaluate(whole, whats[e])
                except DomainError as exc:
                    failed[e] = exc
    for e, (more, also, _) in enumerate(certain):
        if more or also:
            brackets[e], zeros[e] = sorted(brackets[e] + more), sorted(zeros[e] + also)
    return [failed[e] if e in failed else
            _Scan(brackets[e], zeros[e], masked_points[e] + nans[e], certain[e][2])
            for e in range(k)]


def _monotone_run(t: _FTerms, s: _Samples, a: int, b: int, closing: bool
                  ) -> Optional[tuple[list, list, tuple[float, float]]]:
    """The brackets and zeros that an evaluation of every sample finds on
    the run of blocks from uniform sample a to b of the rule ``s``, which
    holds no packed sample, and the run's certificate; None where the run
    lacks the certificate.

    :func:`_slope_bound` certifies it with (slope, eps) where 2 eps <
    |slope| times ``s.gap``, less than the spacing of any two samples.
    Then f, as computed, rises or falls strictly from sample to sample, and
    is finite with both radicands above 0 at each: at most one pair of
    consecutive samples changes sign, or one sample is an exact zero.  f at
    the two ends settles the run where their signs agree; otherwise a
    search of the index, a secant search safeguarded by bisection, finds
    that pair or zero.  :func:`_f_point` gives f bit for bit as
    :func:`_f_arrays` does.  A run owns its samples but the last, and the
    last too where it ends the scan (``closing``).
    """
    e_a, e_b = s.at(a), s.at(b)
    cert = _slope_bound(t, e_a, e_b)
    if cert is None or not 2.0 * cert[1] < abs(cert[0]) * s.gap:
        return None
    f_a, f_b = _f_point(t, e_a)[0], _f_point(t, e_b)[0]
    if f_a == 0.0:
        return [], [e_a], cert
    if f_b == 0.0:
        return [], [e_b] if closing else [], cert
    if (f_a > 0.0) == (f_b > 0.0):
        return [], [], cert
    # three rounds of two probes, then bisection: a round probes the sample
    # below where the line through the last two points probed crosses 0,
    # then its neighbour toward the crossing, so that the next line is f's
    # chord over one sample.  A smooth f takes two rounds
    p, f_p, q, f_q = a, f_a, b, f_b  # the last two points probed
    n = 0
    while b - a > 1:
        if n >= 6:
            j = (a + b) // 2
        elif n % 2 == 0:
            j = min(max(math.floor(q - f_q / (f_q - f_p) * (q - p)), a + 1), b - 1)
        else:
            j = q + 1 if q == a else q - 1
        n += 1
        if not a < j < b:
            continue
        e_j = s.at(j)
        f_j = _f_point(t, e_j)[0]
        if f_j == 0.0:
            return [], [e_j], cert
        p, f_p, q, f_q = q, f_q, j, f_j
        if (f_j > 0.0) == (f_a > 0.0):
            a, e_a, f_a = j, e_j, f_j
        else:
            b, e_b, f_b = j, e_j, f_j
    # a product that underflows to 0 is no sign change, as in the scan
    return ([(e_a, e_b, f_a, f_b)] if f_a * f_b < 0.0 else []), [], cert


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
    sample (see :func:`_scan_all`); no bracket or zero lies in the others,
    so the brackets, zeros and masked count are those of f at every sample,
    bit for bit.  Where an interval bound of f' proves f strictly monotone
    on a run of the other blocks, f at a few of its samples settles it
    instead (:func:`_monotone_run`): at masses 1 to 10 more than half the
    solves evaluate no block at all.  Bisection then replays its steps on
    each bracket that the same bound certifies, evaluating f only at the
    mids next to the root (:func:`_bisect`), with the roots of plain
    bisection bit for bit.

    Where the window holds no radicand boundary, so that the rule packs no
    samples, the oracle's roots can stand in for the scan
    (:func:`.sextic._certified_brackets`): inclusion discs for the roots of
    U formed exactly, one certified sign change of f in the cell of each
    survivor, and a bound |f| > eps elsewhere prove the brackets that the
    scan would find, and that it would find no zero and mask no sample.  The
    brackets go to the same bisection, which reads their certificates; at
    masses 1 to 10 this answers nearly every such solve.  Where any part of
    the proof fails, the scan runs, with the oracle already taken.  So the
    result and every error are the scan's, bit for bit.

    The bisection roots and the oracle's survivors must match in both
    directions: any unexplained mismatch raises OracleMismatch, and a
    mismatch within two ulps of the root, where ``ORACLE_MATCH_FACTOR *
    opts.bisect_tol`` is too small for doubles to meet, raises DomainError
    instead.  Each root is checked as soon as it is found, ascending, so the
    solve ends at the first root without an oracle partner.

    A solve's time goes mostly to a fixed cost, not to arithmetic: some
    hundred numpy calls on small arrays, or none where the oracle's
    certificate holds, and the per-root Python of the oracle's polish, of
    the certificates and of bisection.  The oracle
    calls LAPACK without np.linalg.eigvals' wrapper, and the scan builds
    its block edges once per grid size and its bounds in one preallocated
    block.  Sweeps, tables and multi-state solves run their equations
    together through the same stages (:func:`_solve_all`), with the results
    of one-at-a-time solves.
    """
    window = search_window(eq, opts.margin)
    roots: list = []
    oracle = quartic_oracle(eq, window=window, _roots=roots) if opts.oracle_check else None
    samples = _scan_samples(eq.terms, *window, opts.grid_points)
    scan = (_oracle_scan(eq.terms, samples, oracle, roots)
            or _scan(eq.terms, samples, _scan_what(eq, window)))
    return _finish(eq, window, oracle, samples, scan, opts)


def _oracle_scan(t: _FTerms, samples: _Samples, oracle: Optional[OracleResult],
                 roots: Optional[list]) -> Optional[_Scan]:
    """The scan's outcome proved from the oracle and U's ``roots`` without
    the scan (:func:`.sextic._certified_brackets`), or None."""
    found = oracle and _certified_brackets(t, samples, oracle.survivors, oracle.coefficients, roots)
    return _Scan(found[0], [], 0, found[1]) if found else None


def _solve_all(
    eqs: Sequence[Union[EnergyEquation, SolverError]], opts: SolveOptions = SolveOptions()
) -> list[Union[SpectrumResult, SolverError]]:
    """:func:`solve_spectrum` of each equation, run together: each one's
    SpectrumResult, or the SolverError of the same type and text that its
    own solve raises, bit for bit.  An entry that is a SolverError already,
    an equation that could not be built, comes back as it is.

    BATCH_EQUATIONS equations at a time go through solve_spectrum's stages,
    in its order: each equation's window, then the oracles, whose companion
    matrices take one stacked LAPACK call (:func:`_oracles`), then the sample
    rules and one batch of scans (:func:`_scan_all`), then each equation's
    bisection, oracle matching and result.  So the memory the batch works
    in does not grow with it.  An equation leaves the batch at its first
    error.  A batch of one equation is solve_spectrum itself, so that a
    traced solve shows as one.
    """
    out: list = [eq if isinstance(eq, SolverError) else None for eq in eqs]
    live = [i for i, eq in enumerate(out) if eq is None]
    if len(live) == 1:
        try:
            out[live[0]] = solve_spectrum(eqs[live[0]], opts)
        except SolverError as exc:
            out[live[0]] = exc
        return out
    for at in range(0, len(live), BATCH_EQUATIONS):
        windows: dict[int, tuple[float, float]] = {}
        for i in live[at:at + BATCH_EQUATIONS]:
            try:
                windows[i] = search_window(eqs[i], opts.margin)
            except SolverError as exc:
                out[i] = exc
        oracles: dict[int, Optional[OracleResult]] = dict.fromkeys(windows)
        roots: dict[int, list] = {}
        if opts.oracle_check:
            for i, oracle in zip(list(windows), _oracles([eqs[i] for i in windows],
                                                         list(windows.values()))):
                if isinstance(oracle, SolverError):
                    out[i] = oracle
                    del windows[i]
                else:
                    oracles[i], roots[i] = oracle
        samples = {i: _scan_samples(eqs[i].terms, *window, opts.grid_points)
                   for i, window in windows.items()}
        scans = {i: _oracle_scan(eqs[i].terms, samples[i], oracles[i], roots.get(i))
                 for i in windows}
        rest = [i for i, scan in scans.items() if scan is None]
        if rest:
            scans.update(zip(rest, _scan_all([eqs[i].terms for i in rest],
                                             [samples[i] for i in rest],
                                             [_scan_what(eqs[i], windows[i]) for i in rest])))
        for i, window in windows.items():
            try:
                out[i] = _finish(eqs[i], window, oracles[i], samples[i], _one(scans[i]), opts)
            except SolverError as exc:
                out[i] = exc
    return out


def _scan_what(eq: EnergyEquation, window: tuple[float, float]) -> Callable[[], str]:
    """What a scan names when f leaves the doubles on it."""
    lo, hi = window
    return lambda: (f"f on the scan of the window ({lo!r}, {hi!r}) at "
                    f"{_given(eq.params, 'mass', 'c_sym')}")


def _finish(eq: EnergyEquation, window: tuple[float, float], oracle: Optional[OracleResult],
            samples: _Samples, scan: _Scan, opts: SolveOptions) -> SpectrumResult:
    """The roots of a scanned equation: bisection of its brackets, the
    oracle's confirmation and the physical selection (see
    :func:`solve_spectrum`)."""
    lo, hi = window
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
        above = ([_bisect(eq.terms, *scan.brackets[k], opts,
                          scan.certified.get(scan.brackets[k][0]))]
                 if k < len(scan.brackets) else [])
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


def quartic_oracle(
    eq: EnergyEquation,
    window: Optional[tuple[float, float]] = None,
    _roots: Optional[list] = None,
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
    DomainError naming the parameters, and so is an entry -c_k / c_0 of
    U's companion matrix past them, which finite coefficients can make.

    ``_roots``, where given, receives U's companion roots in u, unpolished,
    in the order of ``all_roots``: :func:`solve_spectrum` certifies its
    brackets from them (:func:`.sextic._inclusion_discs`).
    """
    oracle, roots = _one(_oracles([eq], [window])[0])
    if _roots is not None:
        _roots += roots
    return oracle


def _oracles(
    eqs: Sequence[EnergyEquation], windows: Sequence[Optional[tuple[float, float]]]
) -> list[Union[tuple[OracleResult, list[complex]], DomainError]]:
    """:func:`quartic_oracle` of each equation in its window, its roots taken
    for all of them at once (:func:`_companion_roots`): each one's
    OracleResult with U's roots in u, or its DomainError, so an equation
    whose companion matrix leaves the doubles costs the others nothing."""
    out: list = [None] * len(eqs)
    polys = {}
    for i, eq in enumerate(eqs):
        coeffs = _u_polynomial(eq.terms)[::-1]  # highest degree first
        if coeffs[0] > 0.0 and all(map(math.isfinite, coeffs)):
            polys[i] = coeffs
        else:
            bad = next((c for c in coeffs if not math.isfinite(c)), coeffs[0])
            out[i] = _oracle_error(eq, f"a coefficient of the oracle's polynomial at {bad!r}")
    for (i, coeffs), zs in zip(polys.items(), _companion_roots(list(polys.values()))):
        if zs is None:
            bad = next(e for e in (-c / coeffs[0] for c in coeffs[1:]) if not math.isfinite(e))
            out[i] = _oracle_error(eqs[i], f"an entry of the oracle's companion matrix at {bad!r}")
            continue
        try:
            out[i] = _oracle_result(eqs[i], coeffs, zs, windows[i]), zs
        except SolverError as exc:
            out[i] = exc
    return out


def _oracle_error(eq: EnergyEquation, what: str) -> DomainError:
    """The DomainError of an oracle whose ``what`` leaves the doubles."""
    return DomainError(f"{_given(eq.params, 'mass', 'c_sym', 'tensor_h', 'alpha', 'c0')} put "
                       f"{what}, past the doubles")


def _oracle_result(eq: EnergyEquation, coeffs: list, roots: list[complex],
                   window: Optional[tuple[float, float]]) -> OracleResult:
    """U's ``roots`` polished, taken to E and sorted into survivors and
    spurious roots (see :func:`quartic_oracle`)."""
    t = eq.terms
    lo, hi = window if window is not None else (-math.inf, math.inf)

    all_roots: list[complex] = []
    survivors: list[float] = []
    spurious: list[complex] = []
    for z in roots:
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
    rows: Sequence[tuple[ModelParams, StateIndex, StateIndex]],
    opts: SolveOptions,
    assembly: Optional[str] = None,
) -> list[Union[tuple[float, float], SolverError]]:
    """Negative-root energies of checked doublets' members, each row
    (params, neg, pos) at its ``params.tensor_h`` in the given assembly,
    every equation solved in one batch (:func:`_solve_all`): a row's pair,
    or the first SolverError of its negative member, then of its positive
    one, as solving them one at a time would raise.

    At H = 0 the members share n and their q values are q and 1 - q, so
    q (q - 1) and (q - 1/2)^2 agree exactly and they solve one and the
    same equation bit for bit: it is solved once.
    """
    eqs: list[Union[EnergyEquation, SolverError]] = []
    members: list[range] = []  # per row, its members' places in eqs
    for params, neg, pos in rows:
        states = (neg,) if params.tensor_h == 0.0 else (neg, pos)
        members.append(range(len(eqs), len(eqs) + len(states)))
        for state in states:
            try:
                eqs.append(EnergyEquation(params, state, assembly))
            except SolverError as exc:
                eqs.append(exc)
    results = _solve_all(eqs, opts)
    out: list[Union[tuple[float, float], SolverError]] = []
    for row in members:
        try:
            energies = [negative_root(_one(results[m])) for m in row]
        except SolverError as exc:
            out.append(exc)
        else:
            out.append((energies[0], energies[-1]))
    return out


def splitting_report(
    params: ModelParams,
    state_neg: StateIndex,
    state_pos: StateIndex,
    opts: SolveOptions = SolveOptions(),
    assembly: Optional[str] = None,
) -> SplittingReport:
    """Quantify how the tensor term lifts a doublet degeneracy.

    Solves both members at the configured tensor strength and the H = 0
    baseline, which the two members share, together and in ``assembly``
    (see :func:`_doublet_energies`); a nonzero H pushes them to opposite
    sides of it.
    """
    check_doublet(params, state_neg, state_pos)
    now, base = _doublet_energies([(params, state_neg, state_pos),
                                   (replace(params, tensor_h=0.0), state_neg, state_pos)],
                                  opts, assembly)
    (e_neg, e_pos), (baseline, _) = _one(now), _one(base)

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
