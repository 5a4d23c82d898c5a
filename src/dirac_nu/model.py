"""Physical model: parameters, quantum numbers, and the radial functions.

The radial potential is an exponential-screened well,

    V(r) = (V1 e^{-4 a r} + V2 e^{-2 a r} + V3) / (1 - e^{-2 a r})^2

with screening rate ``a`` (written ``alpha`` in code) and shape parameter
``A`` fixing the coefficients

    V1 = a^2 / 4,   V2 = (A - 8) a^2 / 4,   V3 = (4 - A) a^2 / 4.

On top of it sits a Coulomb-like tensor interaction U(r) = -H / r.  Units
are natural (hbar = c = 1); energies and inverse lengths carry fm^-1.

Near the origin V behaves like -3 / (16 r^2) independently of A; at large
r it levels off at V3.  The 1/r^2 terms produced by the centrifugal and
tensor pieces are handled with the exponential approximation

    1/r^2 ~= 4 a^2 [C0 + s / (1 - s)^2],   s = e^{-2 a r},  C0 = 1/12,

which keeps the transformed equation exactly solvable.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError

ArrayLike = Union[float, NDArray[np.float64]]

PSEUDOSPIN = "pseudospin"
SPIN = "spin"
_SYMMETRIES = (PSEUDOSPIN, SPIN)

# the most points any grid may have, 50 times the default energy scan: a
# larger count is refused before anything is allocated
MAX_POINTS = 10**6

# spectroscopic letters indexed by orbital angular momentum
_L_LETTERS = "spdfghiklmnoqrtuvwxyz"


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of model parameters.

    ``c_sym`` is the constant value of the relevant combination of scalar
    and vector potentials: Sigma = C_sym in the pseudospin limit, Delta =
    C_sym in the spin limit.  ``tensor_h`` is the Coulomb-like tensor
    strength H.  ``strict_domain`` enforces the regime the closed-form
    solution was designed for (alpha > 1/2 and 4 < A < 8); relax it only
    for exploratory work.
    """

    mass: float
    symmetry: str = PSEUDOSPIN
    c_sym: float = 0.0
    tensor_h: float = 0.0
    alpha: float = 0.6
    a_shape: float = 5.0
    c0: float = 1.0 / 12.0
    strict_domain: bool = True

    def __post_init__(self) -> None:
        if self.symmetry not in _SYMMETRIES:
            raise DomainError(f"symmetry must be one of {_SYMMETRIES}, got {self.symmetry!r}")
        for name in ("mass", "c_sym", "tensor_h", "alpha", "a_shape", "c0"):
            value = getattr(self, name)
            if isinstance(value, np.floating):
                # a numpy scalar warns where a float overflows silently, and
                # prints its type in every message
                value = float(value)
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be positive, got {self.mass!r}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if self.c0 < 0.0:
            raise DomainError(f"c0 must be nonnegative, got {self.c0!r}")
        if self.strict_domain:
            if not self.alpha > 0.5:
                raise DomainError(
                    f"strict domain requires alpha > 1/2, got {self.alpha!r}; "
                    "pass strict_domain=False to override"
                )
            if not 4.0 < self.a_shape < 8.0:
                raise DomainError(
                    f"strict domain requires 4 < A < 8, got {self.a_shape!r}; "
                    "pass strict_domain=False to override"
                )


@dataclass(frozen=True)
class PotentialCoeffs:
    """The three well coefficients derived from (alpha, A)."""

    v1: float
    v2: float
    v3: float

    @property
    def total(self) -> float:
        """V1 + V2 + V3, equal to -3 alpha^2 / 4 identically."""
        return self.v1 + self.v2 + self.v3


@contextmanager
def within_doubles(what: Callable[[], str]) -> Iterator[None]:
    """DomainError naming ``what()`` where a numpy operation inside overflows,
    divides by zero or makes a NaN, instead of a warning and a non-finite value;
    ``what`` is called only then, so a block that succeeds formats no message."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"{what()} leaves the doubles: {exc}") from None


def check_points(name: str, value: int, least: int) -> None:
    """The one rule for a point count: from ``least`` to MAX_POINTS; DomainError
    naming ``name`` otherwise."""
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    if value > MAX_POINTS:
        raise DomainError(f"{name} must be <= {MAX_POINTS}, got {value!r}")


def check_r_min(r_min: float) -> None:
    """The one rule for a radial grid's inner end: finite and positive."""
    if not (math.isfinite(r_min) and r_min > 0.0):
        raise DomainError(f"r_min must be finite and positive, got {r_min!r}")


def log_grid(r_min: float, r_max: float, n_points: int) -> NDArray[np.float64]:
    """The one log-spaced radial grid, ``n_points`` radii from r_min to r_max:
    r_min passes :func:`check_r_min`, r_max is finite and above it, and
    n_points is from 2 to MAX_POINTS; DomainError otherwise.

    The radii equal ``np.geomspace(r_min, r_max, n_points)`` bit for bit: this
    is the arithmetic geomspace does for positive finite ends, without its
    generic wrapper.  The base-10 logarithms lo and hi of the ends are spaced
    as np.linspace spaces them (exponent k is k * step + lo), 10 is raised to
    them as a one-element array, as np.logspace does, and both ends are
    restored to r_min and r_max exactly, which also stands for linspace
    setting its last exponent to hi.  The exponents become the radii in
    place.
    """
    check_r_min(r_min)
    if not (r_min < r_max and math.isfinite(r_max)):
        raise DomainError(f"need finite 0 < r_min < r_max, got {r_min!r}, {r_max!r}")
    check_points("n_points", n_points, 2)
    lo, hi = np.log10((r_min, r_max))
    radii = np.arange(float(n_points))
    radii *= (hi - lo) / (n_points - 1)
    radii += lo
    np.power(np.array([10.0]), radii, out=radii)
    radii[0], radii[-1] = r_min, r_max
    return radii


def four_alpha2(alpha: float) -> float:
    """4 alpha^2, the scale of the 1/r^2 surrogate; DomainError unless it is a
    finite nonzero double."""
    value = 4.0 * (alpha * alpha)
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"alpha = {alpha!r} puts 4 alpha^2 = {value!r} outside the finite nonzero doubles"
        )
    return value


def potential_coeffs(params: ModelParams) -> PotentialCoeffs:
    """Coefficients (V1, V2, V3) for the given screening rate and shape;
    DomainError when one of them leaves the doubles."""
    a2 = params.alpha * params.alpha
    coeffs = PotentialCoeffs(
        v1=a2 / 4.0,
        v2=(params.a_shape - 8.0) * a2 / 4.0,
        v3=(4.0 - params.a_shape) * a2 / 4.0,
    )
    if not (math.isfinite(coeffs.v2) and math.isfinite(coeffs.v3)):
        raise DomainError(
            f"alpha = {params.alpha!r} and a_shape = {params.a_shape!r} put "
            f"V2 = {coeffs.v2!r} or V3 = {coeffs.v3!r} past the doubles"
        )
    return coeffs


def _require_positive_radii(r: ArrayLike) -> NDArray[np.float64]:
    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        raise DomainError("empty radius input")
    if not np.all(np.isfinite(arr)):
        raise DomainError("radii must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("radii must be strictly positive")
    return arr


def eval_potential(params: ModelParams, r: ArrayLike) -> ArrayLike:
    """Evaluate V(r); accepts a scalar or an array of positive radii.

    The denominator is computed through expm1 so the r -> 0 divergence
    stays accurate instead of drowning in cancellation.
    """
    arr = _require_positive_radii(r)
    c = potential_coeffs(params)
    s = np.exp(-2.0 * params.alpha * arr)
    one_minus_s = -np.expm1(-2.0 * params.alpha * arr)
    value = (c.v1 * s * s + c.v2 * s + c.v3) / (one_minus_s * one_minus_s)
    return float(value) if np.isscalar(r) else value


def eval_tensor(tensor_h: float, r: ArrayLike) -> ArrayLike:
    """The tensor interaction U(r) = -H / r."""
    arr = _require_positive_radii(r)
    value = -tensor_h / arr
    return float(value) if np.isscalar(r) else value


def centrifugal_approx(params: ModelParams, r: ArrayLike) -> ArrayLike:
    """Exponential surrogate for 1/r^2: 4 a^2 [C0 + s / (1 - s)^2]."""
    arr = _require_positive_radii(r)
    four_a2 = four_alpha2(params.alpha)
    s = np.exp(-2.0 * params.alpha * arr)
    one_minus_s = -np.expm1(-2.0 * params.alpha * arr)
    value = four_a2 * (params.c0 + s / (one_minus_s * one_minus_s))
    return float(value) if np.isscalar(r) else value


def kappa_to_l_j(kappa: int) -> tuple[int, float]:
    """Orbital l and total j carried by the upper component.

    l solves kappa (kappa + 1) = l (l + 1) with l >= 0, and j = |kappa| - 1/2.
    """
    l = kappa if kappa > 0 else -kappa - 1
    return l, abs(kappa) - 0.5


def kappa_to_pseudo_l(kappa: int) -> int:
    """Pseudo-orbital l-tilde: solves kappa (kappa - 1) = lt (lt + 1), lt >= 0."""
    return kappa - 1 if kappa > 0 else -kappa


@dataclass(frozen=True)
class StateIndex:
    """Radial index n and relativistic quantum number kappa.

    ``n`` is the formula-level radial index: the degree of the polynomial
    part of the solved component.  The spectroscopic principal number can
    differ by one from it (see :meth:`spectroscopic_label`).
    """

    n: int
    kappa: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DomainError(f"n must be an int, got {self.n!r}")
        if not isinstance(self.kappa, int) or isinstance(self.kappa, bool):
            raise DomainError(f"kappa must be an int, got {self.kappa!r}")
        if self.n < 0:
            raise DomainError(f"n must be nonnegative, got {self.n!r}")
        if self.kappa == 0:
            raise DomainError("kappa = 0 is not a valid relativistic quantum number")

    def lam(self, tensor_h: float) -> float:
        """Tensor-shifted kappa used by the pseudospin limit: kappa + H."""
        return self.kappa + tensor_h

    def eta(self, tensor_h: float) -> float:
        """Tensor-shifted kappa used by the spin limit: kappa + H + 1."""
        return self.kappa + tensor_h + 1.0

    def spectroscopic_label(self, symmetry: str) -> str:
        """Conventional label like ``1s1/2`` or ``0d3/2``.

        In the pseudospin limit the solved component is the lower one and
        states with kappa > 0 are labelled with principal number n - 1; the
        spin limit labels both signs of kappa with n itself.
        """
        if symmetry not in _SYMMETRIES:
            raise DomainError(f"symmetry must be one of {_SYMMETRIES}, got {symmetry!r}")
        l, j = kappa_to_l_j(self.kappa)
        if symmetry == PSEUDOSPIN and self.kappa > 0:
            n_label = self.n - 1
        else:
            n_label = self.n
        if n_label < 0:
            raise DomainError(
                f"state (n={self.n}, kappa={self.kappa}) has no {symmetry} spectroscopic label"
            )
        if l >= len(_L_LETTERS):
            raise DomainError(f"orbital quantum number l={l} out of label range")
        return f"{n_label}{_L_LETTERS[l]}{2 * abs(self.kappa) - 1}/2"
