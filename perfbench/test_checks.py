"""Self-tests of the benchmark's output checks.

    python3 -m pytest perfbench -q

The independent f must reproduce the published energies, and the checks
must reject a root moved by 1e-6 and a spinor table scaled by 1.01.
"""

from __future__ import annotations

import json

import mpmath
import pytest

import checks
import inputs
import run

PARS, CELLS = run.reference_cells()


def _problem(cell: dict) -> checks.Problem:
    return run.reference_problem(PARS, cell["symmetry"], cell["n"], cell["kappa"],
                                 cell["tensor_h"])


@pytest.fixture(scope="module")
def program() -> run.Program:
    return run.Program()


def test_independent_f_reproduces_every_published_energy():
    assert len(CELLS) == 64
    for cell in CELLS:
        pb = _problem(cell)
        for published in cell["energies"]:
            found = checks.find_root(pb, published)
            assert abs(mpmath.im(found)) < 1e-12
            root = float(mpmath.re(found))
            assert abs(root - published) <= checks.REFERENCE_TOL, (cell, root)
            assert checks.check_root(pb, root) == []


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_root_moved_by_1e6_is_rejected(shift):
    for cell in CELLS[:8]:
        pb = _problem(cell)
        root = float(mpmath.re(checks.find_root(pb, cell["energies"][0])))
        assert checks.check_root(pb, root + shift)


def test_reference_match_needs_the_same_sign_within_1e6():
    assert checks.check_reference([-4.5], [-4.5000005], "x") == []
    assert checks.check_reference([-4.5], [-4.500002], "x")
    assert checks.check_reference([-4.5], [4.5], "x")


def test_splitting_check():
    h = [0.0, 0.5, 1.0]
    assert checks.check_splitting(h, [-4.0, -4.1, -4.2], [-4.0, -3.9, -3.8], "x") == []
    assert checks.check_splitting(h, [-4.0, -4.1, -4.2], [-4.1, -3.9, -3.8], "x")
    assert checks.check_splitting(h, [-4.0, -4.1, -4.2], [-4.0, -4.05, -3.8], "x")


def test_terminating_residual_check():
    assert checks.check_terminating_residual(1e-10, "x") == []
    assert checks.check_terminating_residual(1e-7, "x")
    assert checks.check_terminating_residual(None, "x")
    assert checks.check_terminating_residual(float("nan"), "x")


def test_table_scaled_by_1_01_is_rejected(program):
    eq = program.equation(inputs.Case(assembly="strict", **inputs.README_STATE))
    energy = program.pkg.solve_spectrum(eq).selected.energy
    table = program.pkg.pseudospin_components(eq, energy)
    assert checks.check_decaying_table(table.r, table.g, table.f, table.g, 1, "x") == []
    scaled = 1.01 * table.g, 1.01 * table.f
    assert checks.check_decaying_table(table.r, *scaled, scaled[0], 1, "x")
    assert checks.check_decaying_table(table.r, table.g, table.f, table.g, 2, "x")


def test_cli_checks_pass_on_real_output_and_reject_a_moved_energy(program):
    text = program.cli_inproc(inputs.CLI_COMMANDS["solve"])
    assert run.cli_output_problems("solve", text) == []
    payload = json.loads(text)
    payload["records"][0]["E_all_real_roots"][0] += 1e-6
    assert run.cli_output_problems("solve", json.dumps(payload))
    sweep = program.cli_inproc(inputs.CLI_COMMANDS["sweep"])
    assert run.cli_output_problems("sweep", sweep) == []


def test_spinor_states_follow_the_design(program):
    states = run.spinor_states(3, program)
    assert len(states) == len(inputs.BRANCHES) * len(inputs.SPINOR_SLOTS) + 1
    assert states[-1][0] == inputs.FAULT_CASE
    slots = [(slot, branch) for slot in inputs.SPINOR_SLOTS for branch in inputs.BRANCHES]
    for ((stratum, symmetry, n), branch), (case, got_branch, eq, energy) in zip(slots, states):
        nu, mu = checks.exponents(checks.Problem.of(eq), energy)
        lo, hi = inputs.NU_STRATA[stratum]
        assert (case.symmetry, case.n, got_branch) == (symmetry, n, branch)
        assert lo <= nu < hi
        assert branch == "terminating" or mu >= inputs.MU_MIN_DECAYING


def test_seeded_inputs_repeat():
    assert inputs.spectrum_sample(5, 64) == inputs.spectrum_sample(5, 64)
    assert inputs.spectrum_sample(5, 64) != inputs.spectrum_sample(6, 64)
    assert sorted(inputs.cli_order(4)) == sorted(inputs.CLI_COMMANDS)


def test_importtime_tree_sums_outermost_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        5 |          5 |     numpy.core",
        "import time:       10 |         15 |   numpy",
        "import time:        3 |          3 |     scipy.special",
        "import time:        2 |          5 |   scipy.integrate",
        "import time:        1 |         21 | dirac_nu",
    ])
    rows = run.parse_importtime(text)
    assert run.cumulative_us(rows, "numpy") == 15
    assert run.cumulative_us(rows, "scipy") == 5
    assert run.cumulative_us(rows, "dirac_nu") == 21

