"""The names the benchmark's tracer reads must keep being reached.

``perfbench/run.py`` reports a per-layer median for every function in
``spans.SPAN_TARGETS``; a function that is renamed, removed or no longer
called leaves that median without samples, and the run cannot print its
JSON result line.  This test runs what a traced run reaches outside its
workload loop, under the benchmark's own tracer, and checks that every
target recorded a span and that a table carries every field the run reads.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import dirac_nu.cli
import dirac_nu.spectrum
import dirac_nu.wavefn
from dirac_nu.model import PSEUDOSPIN, SPIN, ModelParams, StateIndex

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import spans  # noqa: E402


# spinor-table attributes that perfbench/run.py and perfbench/checks.py read
TABLE_FIELDS = ("r", "g", "f", "dominant", "energy", "norm_constant", "node_count",
                "residual_norm")


@pytest.fixture(scope="module")
def traced_run():
    """The tracer after the run, and the spin-limit table built under it."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("PSEUDOSPIN_CONFIG", raising=False)
            for argv in inputs.CLI_COMMANDS.values():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert dirac_nu.cli.main(argv) == 0, argv
        # looked up at call time, so the tracer's wrappers are what runs
        spin = ModelParams(mass=5.0, symmetry=SPIN, c_sym=0.0, tensor_h=1.0)
        eq = dirac_nu.spectrum.build_equation(spin, StateIndex(0, -2))
        energy = dirac_nu.spectrum.solve_spectrum(eq).roots[0].energy
        table = dirac_nu.wavefn.spin_limit_components(eq, energy)
        dirac_nu.spectrum.solve_spectrum(
            eq, dirac_nu.spectrum.SolveOptions(grid_points=2001, oracle_check=False)
        )
    finally:
        tracer.uninstall()
    return tracer, table


@pytest.fixture(scope="module")
def tracer(traced_run):
    return traced_run[0]


def test_every_span_target_is_reached(tracer):
    names = set(tracer.durations())
    expected = {name for name, *_ in spans.SPAN_TARGETS if name != "cli.main"}
    expected |= {f"cli.main.{name}" for name in inputs.CLI_COMMANDS}
    expected.add("spectrum.EnergyEquation")
    assert expected - names == set()


def test_table_exposes_every_field_the_benchmark_reads(traced_run):
    table = traced_run[1]
    for name in TABLE_FIELDS:
        assert getattr(table, name) is not None, name


def test_jacobi_evaluations_are_counted_in_tables(tracer):
    per_table = tracer.per_table("wavefn.jacobi_eval")
    assert per_table and min(per_table) > 0


def test_solve_summary_reports_the_oracle(tracer):
    solves = [tracer.info[i] for i, rec in enumerate(tracer.spans)
              if rec[spans.NAME] == "spectrum.solve_spectrum" and i in tracer.info]
    assert solves and sum(s["degree"] for s in solves) > 0
    eq = dirac_nu.spectrum.build_equation(
        ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=1.0), StateIndex(1, -1)
    )
    assert spans._solve_info(dirac_nu.spectrum.solve_spectrum(eq))["degree"] == 6


def test_tracer_leaves_nothing_patched(tracer):
    assert dirac_nu.spectrum.solve_spectrum.__module__ == "dirac_nu.spectrum"
    assert dirac_nu.spectrum.EnergyEquation.__init__.__qualname__ == "EnergyEquation.__init__"
