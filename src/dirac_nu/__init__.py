"""Bound states of an exponential-screened well with Coulomb-like tensor coupling.

The solver works in two exact symmetry limits of the radial problem,
computes energy spectra through a parametric reduction to equations of
hypergeometric type, builds the corresponding spinor components, and
cross-checks every root against an independent radical-free polynomial
oracle.
"""

from .analysis import ApproxReport, PotentialProfile, SweepResult, approx_report, h_sweep, potential_profile
from .errors import (
    ConfigError,
    DenominatorNearZero,
    DomainError,
    GridTooCoarse,
    NegativeRadicand,
    NonNormalizable,
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
    centrifugal_approx,
    eval_potential,
    eval_tensor,
    potential_coeffs,
)
from .nu_core import NuProblem
from .refdata import ReferenceData, load_reference
from .spectrum import (
    ASSEMBLY_REFERENCE,
    ASSEMBLY_STRICT,
    EnergyEquation,
    EnergyRoot,
    OracleResult,
    SolveOptions,
    SpectrumResult,
    SplittingReport,
    build_equation,
    check_doublet,
    negative_root,
    quantization_function,
    quartic_oracle,
    search_window,
    solve_spectrum,
    spin_from_pseudospin_mapping,
    splitting_report,
)
from .wavefn import (
    DECAYING,
    TERMINATING,
    WavefunctionTable,
    jacobi_eval,
    lower_component,
    pseudospin_components,
    spin_limit_components,
    upper_component_from_lower,
    verify_ode,
)

__version__ = "0.1.0"
