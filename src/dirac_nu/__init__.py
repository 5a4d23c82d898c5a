"""Bound states of an exponential-screened well with Coulomb-like tensor coupling.

The solver works in two exact symmetry limits of the radial problem,
computes energy spectra through a parametric reduction to equations of
hypergeometric type, builds the corresponding spinor components, and
cross-checks every root against an independent radical-free polynomial
oracle.

Imports on demand.  ``import dirac_nu`` runs this file alone: it loads no
submodule and no numpy.  Each name in ``__all__`` loads the submodule that
defines it (with what that submodule imports) the first time it is read,
through the module ``__getattr__`` of PEP 562, and is then stored in this
module's globals, so every later read is a plain attribute lookup.  So
``from dirac_nu import SolverError`` loads ``errors`` alone, and the
solver's names (``ModelParams``, ``StateIndex``, ``build_equation``,
``solve_spectrum``, ...) leave ``wavefn``, ``analysis`` and ``refdata``
unloaded.  ``_EXPORTS`` is the one list of exported names.

``dirac_nu.cli`` imports the modules of all its commands at module level:
every command needs numpy anyway, and the benchmark's tracer
(``perfbench/spans.py``) patches functions of ``refdata``, ``analysis``,
``wavefn``, ``nu_core`` and ``spectrum`` that it finds in ``sys.modules``
after importing only this package and ``dirac_nu.cli``.

A name first read while that tracer is installed stores the tracer's
wrapper here, and the wrapper stays after the tracer is removed; the
benchmark reads every name it uses before its first traced round.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "analysis": ("ApproxReport", "PotentialProfile", "SweepResult", "approx_report", "h_sweep",
                 "potential_profile"),
    "errors": ("ConfigError", "DenominatorNearZero", "DomainError", "GridTooCoarse",
               "NegativeRadicand", "NonNormalizable", "NoPhysicalWindow", "NoRootFound",
               "OracleMismatch", "SolverError", "WindowViolation"),
    "model": ("PSEUDOSPIN", "SPIN", "ModelParams", "PotentialCoeffs", "StateIndex",
              "centrifugal_approx", "eval_potential", "eval_tensor", "potential_coeffs"),
    "nu_core": ("NuProblem",),
    "refdata": ("ReferenceData", "load_reference"),
    "spectrum": ("ASSEMBLY_REFERENCE", "ASSEMBLY_STRICT", "EnergyEquation", "EnergyRoot",
                 "OracleResult", "SolveOptions", "SpectrumResult", "SplittingReport",
                 "build_equation", "check_doublet", "negative_root", "quantization_function",
                 "quartic_oracle", "search_window", "solve_spectrum",
                 "spin_from_pseudospin_mapping", "splitting_report"),
    "wavefn": ("DECAYING", "TERMINATING", "WavefunctionTable", "jacobi_eval", "lower_component",
               "pseudospin_components", "spin_limit_components", "upper_component_from_lower",
               "verify_ode"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, read from its submodule once and kept in this module."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
