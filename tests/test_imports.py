"""What importing the package loads, and how its lazy names meet the benchmark's tracer.

``import dirac_nu`` loads no submodule; each exported name loads its module
on first read.  ``dirac_nu.cli`` still imports every module the tracer in
``perfbench/spans.py`` patches, since the benchmark imports only the package
and the CLI before it installs the tracer.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac_nu
import dirac_nu.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

# the package's exports, by defining submodule, as the eager imports made them
EXPORTS = {
    "analysis": ["ApproxReport", "PotentialProfile", "SweepResult", "approx_report", "h_sweep",
                 "potential_profile"],
    "errors": ["ConfigError", "DenominatorNearZero", "DomainError", "GridTooCoarse",
               "NegativeRadicand", "NonNormalizable", "NoPhysicalWindow", "NoRootFound",
               "OracleMismatch", "SolverError", "WindowViolation"],
    "model": ["PSEUDOSPIN", "SPIN", "ModelParams", "PotentialCoeffs", "StateIndex",
              "centrifugal_approx", "eval_potential", "eval_tensor", "potential_coeffs"],
    "nu_core": ["NuProblem"],
    "refdata": ["ReferenceData", "load_reference"],
    "spectrum": ["ASSEMBLY_REFERENCE", "ASSEMBLY_STRICT", "EnergyEquation", "EnergyRoot",
                 "OracleResult", "SolveOptions", "SpectrumResult", "SplittingReport",
                 "build_equation", "check_doublet", "negative_root", "quantization_function",
                 "quartic_oracle", "search_window", "solve_spectrum",
                 "spin_from_pseudospin_mapping", "splitting_report"],
    "wavefn": ["DECAYING", "TERMINATING", "WavefunctionTable", "jacobi_eval", "lower_component",
               "pseudospin_components", "spin_limit_components", "upper_component_from_lower",
               "verify_ode"],
}
ALL = [name for names in EXPORTS.values() for name in names]

# prints what the code before it left in sys.modules, as JSON
_LOADED = ("\nimport json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules"
           " if m == 'numpy' or m.split('.')[0] == 'dirac_nu')))")


def loaded_after(code: str) -> set:
    """The package's modules, and numpy, in sys.modules of a fresh interpreter after ``code``."""
    env = dict(os.environ)
    src = str(Path(dirac_nu.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + _LOADED], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportSurface:
    def test_import_loads_the_package_alone(self):
        assert loaded_after("import dirac_nu") == {"dirac_nu"}

    def test_error_types_load_errors_alone(self):
        assert loaded_after("from dirac_nu import SolverError, DomainError") == {
            "dirac_nu", "dirac_nu.errors"}

    def test_solver_names_leave_tables_analysis_and_data_unloaded(self):
        loaded = loaded_after("from dirac_nu import ModelParams, StateIndex, PSEUDOSPIN, "
                              "build_equation, solve_spectrum, SolveOptions")
        assert "dirac_nu.spectrum" in loaded and "numpy" in loaded
        assert loaded.isdisjoint({"dirac_nu.wavefn", "dirac_nu.analysis", "dirac_nu.refdata"})

    def test_star_import_binds_the_exports_alone(self):
        code = ("from dirac_nu import *\nimport dirac_nu\n"
                "names = {n for n in globals() if not n.startswith('_')}\n"
                "assert names == set(dirac_nu.__all__) | {'dirac_nu'}, names")
        assert "dirac_nu.wavefn" in loaded_after(code)

    def test_all_is_the_pinned_list(self):
        assert dirac_nu.__all__ == ALL

    @pytest.mark.parametrize("module, names", EXPORTS.items(), ids=EXPORTS.keys())
    def test_each_name_is_its_submodules(self, module, names):
        source = importlib.import_module(f"dirac_nu.{module}")
        for name in names:
            assert getattr(dirac_nu, name) is getattr(source, name), name

    def test_a_read_name_is_kept_in_the_package(self):
        code = ("import sys, dirac_nu\nassert 'NuProblem' not in vars(dirac_nu)\n"
                "value = dirac_nu.NuProblem\n"
                "assert vars(dirac_nu)['NuProblem'] is value\n"
                "assert value is sys.modules['dirac_nu.nu_core'].NuProblem")
        assert loaded_after(code) == {"dirac_nu", "dirac_nu.errors", "dirac_nu.nu_core"}

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'dirac_nu' has no attribute 'nope'$"):
            dirac_nu.nope
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            from dirac_nu import nope  # noqa: F401

    def test_dir_lists_every_name(self):
        assert loaded_after("import dirac_nu\nassert set(dirac_nu.__all__) <= set(dir(dirac_nu))"
                            ) == {"dirac_nu"}
        assert set(ALL) <= set(dir(dirac_nu))

    def test_cli_import_leaves_numpy_typing_unloaded(self):
        # the modules name NDArray in annotations alone, under TYPE_CHECKING
        loaded = loaded_after("import dirac_nu.cli\nimport sys\n"
                              "assert 'numpy.typing' not in sys.modules, 'numpy.typing'")
        assert {"numpy", "dirac_nu.spectrum", "dirac_nu.wavefn", "dirac_nu.analysis"} <= loaded

    def test_version_is_a_plain_attribute(self):
        assert vars(dirac_nu)["__version__"] == "0.1.0"


class TestTracerCoupling:
    def test_cli_import_loads_every_module_the_tracer_patches(self):
        targets = {target[1] for target in spans.SPAN_TARGETS + spans.COUNT_TARGETS}
        assert targets - loaded_after("import dirac_nu.cli") == set()

    def test_tracer_patches_and_restores_read_names(self):
        originals = {name: getattr(dirac_nu, name) for name in ALL}
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert dirac_nu.solve_spectrum is not originals["solve_spectrum"]
            assert dirac_nu.solve_spectrum.__qualname__ == "Tracer._span_wrapper.<locals>.wrapper"
        finally:
            tracer.uninstall()
        assert [name for name in ALL if getattr(dirac_nu, name) is not originals[name]] == []
