"""Diagnostics: approximation quality, potential shape, tensor sweeps.

A tensor sweep solves the equations of all its rows together
(``spectrum._solve_all``), since a solve's time is mostly the fixed cost of
its numpy calls, not arithmetic; each row gets what solving its members one
at a time gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import DomainError, SolverError
from .model import (
    ModelParams,
    StateIndex,
    centrifugal_approx,
    eval_potential,
    eval_tensor,
    log_grid,
    potential_coeffs,
    within_doubles,
)
from .spectrum import SolveOptions, _doublet_energies, check_doublet

if TYPE_CHECKING:
    from numpy.typing import NDArray

DEFAULT_H_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
# the radii and point count of approx_report's grid
DEFAULT_APPROX_R_MIN = 1e-3
DEFAULT_APPROX_R_MAX = 10.0
DEFAULT_APPROX_POINTS = 2000


@dataclass(frozen=True)
class ApproxReport:
    """Pointwise quality of the exponential 1/r^2 surrogate.

    Two variants are compared: the corrected surrogate with the model's C0
    and the uncorrected one with C0 = 0.  Relative errors are against the
    exact 1/r^2.
    """

    r: NDArray[np.float64]
    exact: NDArray[np.float64]
    approx: NDArray[np.float64]
    rel_err: NDArray[np.float64]
    approx_nocorr: NDArray[np.float64]
    rel_err_nocorr: NDArray[np.float64]
    max_rel_err: float
    r_at_max: float
    max_rel_err_nocorr: float


def approx_report(
    params: ModelParams,
    r_min: float = DEFAULT_APPROX_R_MIN,
    r_max: float = DEFAULT_APPROX_R_MAX,
    n_points: int = DEFAULT_APPROX_POINTS,
) -> ApproxReport:
    """Evaluate both surrogate variants on a :func:`log_grid`."""
    r = log_grid(r_min, r_max, n_points)
    with within_doubles(lambda: f"1/r^2 or its surrogate on r in [{r_min!r}, {r_max!r}] "
                                f"at alpha = {params.alpha!r}"):
        exact = 1.0 / (r * r)
        approx = np.asarray(centrifugal_approx(params, r))
        nocorr = np.asarray(centrifugal_approx(replace(params, c0=0.0), r))
        x = params.alpha * r
        rel = _rel_err(params.c0, x, approx, exact)
        rel0 = _rel_err(0.0, x, nocorr, exact)
    i = int(np.argmax(rel))
    return ApproxReport(
        r=r,
        exact=exact,
        approx=approx,
        rel_err=rel,
        approx_nocorr=nocorr,
        rel_err_nocorr=rel0,
        max_rel_err=float(rel[i]),
        r_at_max=float(r[i]),
        max_rel_err_nocorr=float(np.max(rel0)),
    )


# h(x) = x^2 / sinh^2 x - 1 + x^2 / 3 = x^4 (1/15 - 2 x^2 / 189 + ...), the
# coefficients of x^4 through x^26: below x = 1/2 the terms left out are
# under 1e-17 of the sum
_H_SERIES = (
    1 / 15, -2 / 189, 1 / 675, -2 / 10395, 1382 / 58046625, -4 / 1403325,
    3617 / 10854718875, -87734 / 2292899734125, 349222 / 80596287646875,
    -310732 / 640374140030625, 472728182 / 8779111824511153125,
    -2631724 / 443779279041223125,
)
_SERIES_BELOW = 0.5


def _rel_err(c0: float, x: NDArray[np.float64], approx: NDArray[np.float64],
             exact: NDArray[np.float64]) -> NDArray[np.float64]:
    """|approx - exact| / exact at x = alpha r, equal to |(4 C0 - 1/3) x^2 + h(x)|.

    Below x = 1/2 the difference cancels, and what is left of it follows the
    rounding of the CPU's exp kernels; there the second form is taken, with
    h from its series.
    """
    rel = np.abs(approx - exact) / exact
    small = x < _SERIES_BELOW
    y = x[small] * x[small]
    h = np.zeros_like(y)
    for coeff in reversed(_H_SERIES):
        h = h * y + coeff
    rel[small] = np.abs((4.0 * c0 - 1.0 / 3.0) * y + y * y * h)
    return rel


@dataclass(frozen=True)
class PotentialProfile:
    """Sampled well and tensor term, with the large-r asymptote."""

    r: NDArray[np.float64]
    v: NDArray[np.float64]
    u: NDArray[np.float64]
    asymptote: float


def potential_profile(params: ModelParams, r: NDArray[np.float64]) -> PotentialProfile:
    """Evaluate V(r) and U(r) on the given radii."""
    r = np.asarray(r, dtype=float)
    with within_doubles(lambda: f"V or U at alpha = {params.alpha!r}, "
                                f"a_shape = {params.a_shape!r}, tensor_h = {params.tensor_h!r}"):
        v = np.asarray(eval_potential(params, r))
        u = np.asarray(eval_tensor(params.tensor_h, r))
    return PotentialProfile(r=r, v=v, u=u, asymptote=potential_coeffs(params).v3)


@dataclass(frozen=True)
class SweepRow:
    """One doublet at one tensor strength; error text when a solve fails."""

    tensor_h: float
    label_neg: str
    label_pos: str
    energy_neg: Optional[float]
    energy_pos: Optional[float]
    delta_e: Optional[float]
    error: str


@dataclass(frozen=True)
class SweepResult:
    """Tensor-strength sweep over a set of degenerate doublets."""

    symmetry: str
    h_values: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    directions: tuple[str, ...]


def h_sweep(
    params: ModelParams,
    doublets: Sequence[tuple[StateIndex, StateIndex]],
    h_values: Sequence[float] = DEFAULT_H_VALUES,
    opts: SolveOptions = SolveOptions(),
    assembly: Optional[str] = None,
) -> SweepResult:
    """Track each doublet's negative-root energies across tensor strengths.

    Every doublet, label and tensor strength is checked before the first
    solve.  The equations of every row are solved together in ``assembly``
    (the limit's default when None), with the results of one-at-a-time
    solves (see :func:`.spectrum._doublet_energies`); a solve's time is
    mostly the fixed cost of its numpy calls, which the batch shares.
    Solver failures (for example an empty window or an assembly the limit
    does not have) are recorded in the row instead of aborting the sweep.
    Each doublet's direction line states how its members moved between its
    first and last solved rows.
    """
    if not doublets:
        raise DomainError("at least one doublet is required")
    if not h_values:
        raise DomainError("at least one tensor strength is required")

    pairs = []
    for state_neg, state_pos in doublets:
        check_doublet(params, state_neg, state_pos)
        pairs.append((state_neg, state_pos, state_neg.spectroscopic_label(params.symmetry),
                      state_pos.spectroscopic_label(params.symmetry)))
    points = [replace(params, tensor_h=float(h)) for h in h_values]

    def trend(a: float, b: float) -> str:
        if b > a:
            return "up"
        if b < a:
            return "down"
        return "flat"

    outcomes = iter(_doublet_energies([(p, state_neg, state_pos) for state_neg, state_pos, _, _
                                       in pairs for p in points], opts, assembly))
    rows: list[SweepRow] = []
    directions: list[str] = []
    for state_neg, state_pos, label_neg, label_pos in pairs:
        for p in points:
            e_neg = e_pos = None
            error = ""
            outcome = next(outcomes)
            if isinstance(outcome, SolverError):
                error = f"{type(outcome).__name__}: {outcome}"
            else:
                e_neg, e_pos = outcome
            rows.append(SweepRow(tensor_h=p.tensor_h, label_neg=label_neg, label_pos=label_pos,
                                 energy_neg=e_neg, energy_pos=e_pos,
                                 delta_e=None if error else e_pos - e_neg, error=error))
        solved = [row for row in rows[-len(points):] if not row.error]
        if len(solved) < 2:
            directions.append(f"{label_neg}: insufficient data")
            continue
        first, last = solved[0], solved[-1]
        directions.append(
            f"{label_neg} moves {trend(first.energy_neg, last.energy_neg)}, "
            f"{label_pos} moves {trend(first.energy_pos, last.energy_pos)} "
            f"as H grows {first.tensor_h:g} -> {last.tensor_h:g}"
        )

    return SweepResult(
        symmetry=params.symmetry,
        h_values=tuple(p.tensor_h for p in points),
        rows=tuple(rows),
        directions=tuple(directions),
    )
