import dataclasses
import hashlib
import itertools
import math
import platform
import random
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_nu.analysis import h_sweep
from dirac_nu.errors import (
    DomainError,
    NegativeRadicand,
    NoPhysicalWindow,
    NoRootFound,
    OracleMismatch,
    SolverError,
    WindowViolation,
)
from dirac_nu import fcore, sextic, spectrum, wavefn
from dirac_nu.model import MAX_POINTS, PSEUDOSPIN, SPIN, ModelParams, PotentialCoeffs, StateIndex
from dirac_nu.spectrum import (
    ASSEMBLY_REFERENCE,
    ASSEMBLY_STRICT,
    NEGATIVE,
    POSITIVE,
    EnergyEquation,
    EnergyRoot,
    SolveOptions,
    build_equation,
    check_doublet,
    negative_root,
    normal_form,
    quantization_function,
    quartic_oracle,
    search_window,
    solve_spectrum,
    spin_from_pseudospin_mapping,
    splitting_report,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import SWEEP_DOUBLETS, SWEEP_H, draw_case  # noqa: E402

OPTS = SolveOptions()


def ps_params(tensor_h=0.0, c_sym=0.0, mass=5.0):
    return ModelParams(mass=mass, symmetry=PSEUDOSPIN, c_sym=c_sym, tensor_h=tensor_h)


def spin_params(tensor_h=0.0, c_sym=0.0, mass=5.0):
    return ModelParams(mass=mass, symmetry=SPIN, c_sym=c_sym, tensor_h=tensor_h)


def cancelled_sum(a_shape):
    """The DomainError message of a V1 + V2 + V3 cancelled at ``a_shape``, alpha 0.6."""
    return (rf"^alpha = 0\.6, a_shape = {re.escape(repr(a_shape))} put "
            r"V1 \+ V2 \+ V3 = -?0\.\d+, not -3 alpha\^2 / 4 = -0\.27$")


class TestEnergyEquation:
    def test_assembly_resolution(self):
        eq = build_equation(ps_params(), StateIndex(1, -1))
        assert eq.assembly == ASSEMBLY_STRICT
        eq2 = build_equation(spin_params(), StateIndex(0, -2))
        assert eq2.assembly == ASSEMBLY_REFERENCE

    def test_pseudospin_rejects_reference_assembly(self):
        with pytest.raises(DomainError):
            build_equation(ps_params(), StateIndex(1, -1), ASSEMBLY_REFERENCE)
        with pytest.raises(DomainError):
            build_equation(spin_params(), StateIndex(1, -1), "other")

    def test_shifted_quantum_number(self):
        assert build_equation(ps_params(1.0), StateIndex(1, -1)).q == 0.0
        assert build_equation(spin_params(1.0), StateIndex(1, -1)).q == 1.0

    def test_coupling_scale_convention(self):
        alpha = 0.6
        assert build_equation(spin_params(), StateIndex(0, -2)).scale == 4 * alpha * alpha
        assert build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT).scale == 1.0
        assert build_equation(ps_params(), StateIndex(1, -1)).scale == 1.0

    def test_physical_sign(self):
        assert build_equation(ps_params(), StateIndex(1, -1)).physical_sign == NEGATIVE
        assert build_equation(spin_params(), StateIndex(0, -2)).physical_sign == POSITIVE

    @pytest.mark.parametrize("symmetry", [PSEUDOSPIN, SPIN])
    @pytest.mark.parametrize("a_shape", [1e14, 1e16, 1e17])
    def test_noise_constants_are_refused_before_any_table(self, symmetry, a_shape):
        # the spinor path took (A, B, C) from normal_form, which no check
        # guarded: at H = 1, (1, -1) and E = -4.6 it gave c9 = 2.0625 at
        # a_shape 1e14 and 3.0 at 1e16 (2.05 at a_shape 5, and c9 does not
        # depend on A), and NegativeRadicand for c9 at 1e17
        params = ModelParams(mass=5.0, symmetry=symmetry, tensor_h=1.0, a_shape=a_shape,
                             strict_domain=False)
        with pytest.raises(DomainError, match=cancelled_sum(a_shape)):
            build_equation(params, StateIndex(1, -1))

    def test_refused_constant_wins_over_an_empty_window(self):
        # c_sym = -10 closes the window, which only search_window reports
        params = ModelParams(mass=5.0, c_sym=-10.0, a_shape=1e17, strict_domain=False)
        with pytest.raises(DomainError, match=cancelled_sum(1e17)):
            build_equation(params, StateIndex(1, -1))

    @pytest.mark.parametrize("symmetry", [PSEUDOSPIN, SPIN])
    def test_constant_past_the_doubles_is_refused(self, symmetry):
        with pytest.raises(DomainError, match=r"^tensor_h = 1e\+200, c0 = 0\.0833\d* put "
                                              r"q \(q - 1\) C0 = inf past the doubles$"):
            build_equation(ModelParams(mass=5.0, symmetry=symmetry, tensor_h=1e200),
                           StateIndex(1, -1))

    def test_derived_constants_stay_out_of_repr_and_equality(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        twin = build_equation(ps_params(1.0), StateIndex(1, -1))
        assert "terms" not in repr(eq) and "physical_window" not in repr(eq)
        assert eq == twin and hash(eq) == hash(twin)
        assert eq.physical_window == (-5.0, 5.0)

    def test_constants_are_derived_only_at_construction(self, monkeypatch):
        calls, checked = [], []
        for name in ("_f_terms", "_physical_window"):
            def counted(eq, _name=name, _fn=getattr(spectrum, name)):
                calls.append(_name)
                return _fn(eq)
            monkeypatch.setattr(spectrum, name, counted)

        def checking(eq, energy, _fn=spectrum.quantization_function):
            checked.append(energy)
            return _fn(eq, energy)
        monkeypatch.setattr(spectrum, "quantization_function", checking)

        def built(params, state):
            eq = build_equation(params, state)
            assert sorted(calls) == ["_f_terms", "_physical_window"]
            calls.clear()
            return eq

        # at mass 300 the oracle keeps roots, checking each with f
        eq = built(ps_params(1.0, mass=300.0), StateIndex(1, -1))
        res = solve_spectrum(eq)
        assert res.oracle.survivors and len(checked) >= len(res.oracle.survivors)
        energy = res.selected.energy
        normal_form(eq, energy)
        wavefn.pseudospin_components(eq, energy, wavefn.default_grid(eq, energy))
        spin = built(spin_params(1.0), StateIndex(0, 1))
        energy = solve_spectrum(spin).selected.energy
        wavefn.spin_limit_components(spin, energy, wavefn.default_grid(spin, energy))
        assert calls == []


class TestSearchWindow:
    def test_symmetric_windows(self):
        lo, hi = search_window(build_equation(ps_params(), StateIndex(1, -1)))
        eps = 1e-9 * 5.0
        assert lo == pytest.approx(-5.0 + eps, abs=1e-15)
        assert hi == pytest.approx(5.0 - eps, abs=1e-15)
        lo, hi = search_window(build_equation(spin_params(c_sym=1.0), StateIndex(0, -2)))
        assert lo == pytest.approx(-4.0 + eps, abs=1e-15)
        assert hi == pytest.approx(5.0 - eps, abs=1e-15)

    def test_empty_window(self):
        with pytest.raises(NoPhysicalWindow) as info:
            search_window(build_equation(ps_params(c_sym=-10.0), StateIndex(1, -1)))
        # an empty core window (-M, M + sigma C) blames c_sym
        assert str(info.value) == (
            "no bound-state window: c_sym=-10.0 closes the interval "
            "(-4.999999995, -5.000000005) for mass 5.0"
        )

    def test_window_closed_by_the_margin_names_the_margin(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        with pytest.raises(NoPhysicalWindow) as info:
            search_window(eq, margin=6.0)
        assert str(info.value) == (
            "no bound-state window: margin=6.0 on each side closes the interval "
            "(-5.0, 5.0) of c_sym=0.0 for mass 5.0"
        )

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
    def test_margin_validation(self, margin):
        eq = build_equation(ps_params(), StateIndex(1, -1))
        with pytest.raises(DomainError, match="margin must be finite and positive"):
            search_window(eq, margin=margin)


class TestQuantizationFunction:
    @pytest.mark.parametrize(
        "tensor_h,energy",
        [(1.0, -4.672750523), (1.0, 4.849764678), (0.0, -4.556531257), (0.0, 4.685901491)],
    )
    def test_small_at_tabulated_pseudospin_energies(self, tensor_h, energy):
        eq = build_equation(ps_params(tensor_h), StateIndex(1, -1))
        assert abs(quantization_function(eq, energy)) < 1e-6

    def test_small_at_tabulated_spin_energy(self):
        eq = build_equation(spin_params(1.0), StateIndex(0, -2))
        assert abs(quantization_function(eq, -4.964565157)) < 1e-6

    def test_window_violation(self):
        eq = build_equation(ps_params(), StateIndex(1, -1))
        with pytest.raises(WindowViolation):
            quantization_function(eq, 5.5)

    def test_negative_radicand_reported(self):
        # strict spin assembly pushes 4 c8 below zero near the upper edge
        eq = build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)
        with pytest.raises(NegativeRadicand):
            quantization_function(eq, 4.99)

    def test_overflow_is_a_domain_error_not_a_negative_radicand(self):
        # at mass 1e160, b2 / (4 alpha^2) overflows, so 4 c8 and 4 A are inf and
        # f is NaN while 4 c9 is a positive 7.5e159; f used to be reported as
        # the negative radicand c9 = 1.875e+159
        eq = build_equation(ps_params(1.0, mass=1e160), StateIndex(1, -1))
        with pytest.raises(DomainError) as info:
            quantization_function(eq, 0.0)
        assert str(info.value) == (
            "mass = 1e+160, c_sym = 0.0, tensor_h = 1.0, alpha = 0.6, "
            "c0 = 0.08333333333333333 put 4 c8 = inf past the doubles at energy 0.0")

    @pytest.mark.parametrize("a_shape", [3e16, 1e17, 1e20, 1e75, -1e17])
    def test_cancelling_potential_constants_are_a_domain_error(self, a_shape):
        # V1 + V2 + V3 = -3 alpha^2 / 4 = -0.27 cancels to rounding noise where
        # A dwarfs 8: -0.5 at 3e16, and 0.0 from 1e17 on, which the oracle
        # divides by; the equation refuses it, so no f is ever evaluated
        with pytest.raises(DomainError, match=cancelled_sum(a_shape)):
            build_equation(ModelParams(mass=5.0, a_shape=a_shape, strict_domain=False),
                           StateIndex(1, -1))


def edge_root_equation():
    """A state with a root 2e-9 inside the upper window edge, which the
    default margin (5e-9) leaves out and a margin of 1e-12 takes in."""
    return build_equation(ModelParams(mass=5.0, c0=0.49999999311960147), StateIndex(0, -1))


class TestWindowRule:
    """f is defined on the whole physical window; the margin narrows only the
    solve's scan and the oracle's filter."""

    def test_f_between_the_margin_and_the_edge(self):
        eq = edge_root_equation()
        assert search_window(eq)[1] < 4.999999998
        assert quantization_function(eq, 4.999999998) == pytest.approx(-2.474e-11, rel=1e-3)

    def test_f_at_the_exact_edges(self):
        eq = edge_root_equation()
        assert math.isfinite(quantization_function(eq, -5.0))
        assert math.isfinite(quantization_function(eq, 5.0))
        with pytest.raises(WindowViolation, match=r"outside physical window \(-5.0, 5.0\)"):
            quantization_function(eq, math.nextafter(5.0, 6.0))

    def test_narrow_margin_roots_are_oracle_confirmed(self):
        res = solve_spectrum(edge_root_equation(), SolveOptions(margin=1e-12))
        assert [r.energy for r in res.roots] == [pytest.approx(-4.904632322387, abs=1e-12),
                                                 4.999999998000847]
        assert all(r.method == "oracle-confirmed" for r in res.roots)
        assert len(res.oracle.survivors) == 2

    def test_default_margin_leaves_the_edge_root_out(self):
        res = solve_spectrum(edge_root_equation(), OPTS)
        assert [r.energy for r in res.roots] == [pytest.approx(-4.904632322387, abs=1e-12)]
        assert res.oracle.survivors == pytest.approx([-4.904632322387], abs=1e-12)


class TestSolveSpectrum:
    def test_tabulated_pair(self):
        res = solve_spectrum(build_equation(ps_params(), StateIndex(1, -1)), OPTS)
        assert res.selected is not None
        assert res.selected.energy == pytest.approx(-4.556531257, abs=1e-6)
        assert any(abs(r.energy - 4.685901491) < 1e-6 for r in res.roots)

    def test_formula_n_convention_for_positive_kappa(self):
        res = solve_spectrum(build_equation(ps_params(), StateIndex(1, 2)), OPTS)
        assert res.selected.energy == pytest.approx(-4.556531257, abs=1e-6)

    def test_tensor_shift_equivalence(self):
        # kappa + H = -1 both ways: identical assembled equations
        a = solve_spectrum(build_equation(ps_params(0.0), StateIndex(1, -1)), OPTS)
        b = solve_spectrum(build_equation(ps_params(1.0), StateIndex(1, -2)), OPTS)
        assert [r.energy for r in a.roots] == [r.energy for r in b.roots]

    def test_spin_doublet_shares_root_set_without_positive_selection(self):
        a = solve_spectrum(build_equation(spin_params(), StateIndex(0, -2)), OPTS)
        b = solve_spectrum(build_equation(spin_params(), StateIndex(0, 1)), OPTS)
        ea = [r.energy for r in a.roots]
        eb = [r.energy for r in b.roots]
        assert len(ea) == len(eb) and all(abs(x - y) < 1e-10 for x, y in zip(ea, eb))
        assert any(abs(e + 4.880113623) < 1e-6 for e in ea)
        assert a.selected is None
        assert "no positive root" in a.selection_note

    def test_strict_assembly_gap_on_the_bundled_spin_cells(self, ref):
        # the bundled spin energies follow "reference"; "strict" moves every
        # negative root by 2.1e-4 to 9.3e-3
        cells = ref.select(SPIN)
        assert len(cells) == 32
        for cell in cells:
            eq = build_equation(ref.params(SPIN, cell.tensor_h), cell.state, ASSEMBLY_STRICT)
            strict = negative_root(solve_spectrum(eq, OPTS))
            (stored,) = [e for e in cell.energies if e < 0]
            assert 2e-4 < abs(strict - stored) < 1e-2, cell

    def test_root_metadata(self):
        res = solve_spectrum(build_equation(ps_params(1.0), StateIndex(1, -1)), OPTS)
        for r in res.roots:
            assert r.method == "oracle-confirmed"
            assert r.residual < 1e-9
            assert r.radicand_c8 >= -4e-12 and r.radicand_c9 >= -4e-12
            assert r.sign_class == (NEGATIVE if r.energy < 0 else POSITIVE)
        assert [r.energy for r in res.roots] == sorted(r.energy for r in res.roots)

    def test_no_roots_reports_empty(self):
        res = solve_spectrum(
            build_equation(ps_params(mass=0.8), StateIndex(1, -1)), OPTS
        )
        assert res.roots == ()
        assert res.selected is None
        assert res.selection_note != ""

    def test_monotone_grid_refinement(self):
        eq = build_equation(ps_params(1.0), StateIndex(2, -1))
        found = {}
        for points in (5001, 10001, 20001):
            res = solve_spectrum(eq, SolveOptions(grid_points=points))
            found[points] = [r.energy for r in res.roots]
        for coarse, fine in ((5001, 10001), (10001, 20001)):
            for e in found[coarse]:
                assert any(abs(e - x) < 1e-9 for x in found[fine])

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.one_of(
            st.floats(min_value=-4.0, max_value=-0.5),
            st.floats(min_value=1.5, max_value=5.0),
        ),
        kappas=st.tuples(
            st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
            st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
        ).filter(lambda t: t[0] != t[1]),
        n=st.integers(min_value=0, max_value=2),
    )
    def test_lambda_invariance(self, lam, kappas, n):
        # the equation depends on kappa and H only through kappa + H
        k1, k2 = kappas
        r1 = solve_spectrum(build_equation(ps_params(lam - k1), StateIndex(n, k1)), OPTS)
        r2 = solve_spectrum(build_equation(ps_params(lam - k2), StateIndex(n, k2)), OPTS)
        e1 = [r.energy for r in r1.roots]
        e2 = [r.energy for r in r2.roots]
        assert len(e1) == len(e2)
        assert all(abs(a - b) < 1e-10 for a, b in zip(e1, e2))

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SolveOptions(grid_points=2)
        with pytest.raises(DomainError):
            SolveOptions(bisect_tol=0.0)

    def test_grid_points_bounded_before_anything_is_allocated(self):
        assert SolveOptions(grid_points=MAX_POINTS).grid_points == MAX_POINTS
        with pytest.raises(DomainError, match=f"grid_points must be <= {MAX_POINTS}, got"):
            SolveOptions(grid_points=MAX_POINTS + 1)

    @pytest.mark.parametrize("bad", [
        {"bisect_tol": math.inf}, {"bisect_tol": math.nan}, {"bisect_tol": -1e-12},
        {"margin": 0.0}, {"margin": -1.0}, {"margin": math.nan}, {"margin": math.inf},
    ], ids=repr)
    def test_options_reject_non_finite_or_nonpositive(self, bad):
        (name,) = bad
        with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
            SolveOptions(**bad)

    def test_bisect_tol_below_two_ulps_is_a_domain_error(self):
        # the oracle match tolerance is 1e3 * bisect_tol: 1e-16 here, under the
        # one-ulp gap (8.9e-16) between the bisection and the oracle root
        eq = build_equation(ps_params(tensor_h=1.0), StateIndex(1, -1))
        with pytest.raises(DomainError, match="smallest bisect_tol .* 1.77635683940025"):
            solve_spectrum(eq, SolveOptions(bisect_tol=1e-19))
        res = solve_spectrum(eq, SolveOptions(bisect_tol=1e-18))
        assert [r.energy for r in res.roots] == [-4.672750522580428, 4.849764677491084]
        assert all(r.method == "oracle-confirmed" for r in res.roots)


def seeded_equations(count, seed="scalar-twin", top=None):
    """Strict-domain states cycling through both limits and both spin
    assemblies; the mass uniform from 1 to 30, or log-uniform from 1 to
    ``top``."""
    rng = random.Random(seed)
    kinds = ((PSEUDOSPIN, ASSEMBLY_STRICT), (SPIN, ASSEMBLY_REFERENCE), (SPIN, ASSEMBLY_STRICT))
    out = []
    for i in range(count):
        symmetry, assembly = kinds[i % 3]
        mass = rng.uniform(1.0, 30.0) if top is None else math.exp(rng.uniform(0.0, math.log(top)))
        params = ModelParams(
            mass=mass, symmetry=symmetry, c_sym=rng.uniform(-mass, mass),
            tensor_h=rng.uniform(-3.0, 3.0), alpha=rng.uniform(0.55, 3.0),
            a_shape=rng.uniform(4.05, 7.95),
        )
        kappa = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        out.append(build_equation(params, StateIndex(rng.randint(0, 5), kappa), assembly))
    return out


def solve_grid(eq, opts=SolveOptions(oracle_check=False)):
    """The energies solve_spectrum scans, boundary packing included, as one
    array (the rule by index yields these, see TestSampleRule)."""
    return spectrum._scan_grid(eq.terms, *search_window(eq, opts.margin), opts.grid_points)


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


class TestScalarTwin:
    """The scalar f used by bisection must reproduce the vectorized scan exactly."""

    def test_bitwise_equal_on_solver_grids(self, ref):
        equations = [build_equation(ref.params(c.symmetry, c.tensor_h), c.state)
                     for c in ref.cells]
        equations += seeded_equations(24)
        nan_points = 0
        for eq in equations:
            grid = solve_grid(eq)
            terms = eq.terms
            f = spectrum._f_arrays(terms, grid)
            points = [spectrum._f_point(terms, e)[0] for e in grid.tolist()]
            assert same_bits(points, f), eq
            nan_points += int(np.count_nonzero(np.isnan(f)))
        assert nan_points > 0  # the masked (negative radicand) points are covered

    def test_bitwise_equal_around_radicand_boundaries(self):
        rng = random.Random("radicand boundaries")
        points = nan_points = 0
        band = np.zeros(2, dtype=int)  # evaluations in the clamp band, for 4 c8 and 4 c9
        for _ in range(100):
            case = draw_case(rng)
            eq = build_equation(ModelParams(**case.params()), StateIndex(case.n, case.kappa),
                                case.assembly)
            terms = eq.terms
            energies = []
            for z in spectrum._radicand_boundaries(terms, *search_window(eq)):
                energies.append(z)
                below = above = z
                for _ in range(40):
                    below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                    energies += [below, above]
            f = spectrum._f_arrays(terms, np.array(energies))
            assert same_bits([spectrum._f_point(terms, e)[0] for e in energies], f), eq
            # a clamp of 0.0 leaves every radicand as computed
            unclamped = terms._replace(clamp=0.0)
            for e in energies:
                q8, q9 = spectrum._f_point(unclamped, e)[1:3]
                band += [terms.clamp <= q8 < 0.0, terms.clamp <= q9 < 0.0]
            points += len(energies)
            nan_points += int(np.count_nonzero(np.isnan(f)))
        # both clamp assignments, [-4e-12, 0) to 0.0, and the NaN points are covered
        assert points > 1000 and band.min() > 0 and nan_points > 0, (points, band, nan_points)

    # every field of every root, captured before bisection moved to the scalar twin
    PINNED = {
        "readme": (ps_params(1.0), StateIndex(1, -1), None, (
            EnergyRoot(-4.6727505225801576, NEGATIVE, 1.2454037801035156e-11,
                       6.374597240818474, 11.210972502108554, 8.25456289193512,
                       "oracle-confirmed"),
            EnergyRoot(4.849764677491137, POSITIVE, 2.7498003873915877e-12,
                       4.072948316481908, 4.148065977736339, 1.112676491881647,
                       "oracle-confirmed"),
        )),
        "radicand_sliver": (spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT, (
            EnergyRoot(-4.879633112940038, NEGATIVE, 1.1995737736469891e-11,
                       4.000038063706978, 3.9398546201769973, 8.909724834705028,
                       "oracle-confirmed"),
            EnergyRoot(4.934149818966542, POSITIVE, 1.1365397512008713e-09,
                       4.9673306880539645, 0.00025577857069292165, 1.5493876357750924,
                       "oracle-confirmed"),
        )),
        "spin_reference_cell": (spin_params(1.0), StateIndex(0, -2), None, (
            EnergyRoot(-4.964565157133004, NEGATIVE, 2.1265544880577636e-11,
                       0.9935698783792102, 0.9680567915149729, 0.9617303697036441,
                       "oracle-confirmed"),
        )),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_roots(self, name):
        params, state, assembly, roots = self.PINNED[name]
        assert solve_spectrum(build_equation(params, state, assembly), OPTS).roots == roots

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # a tolerance below the float spacing used to run all BISECT_MAX_ITER steps
        # per root; the fixed point it reached is returned as soon as it is hit
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        steps, open_bisections = [], []
        point, bisect = spectrum._f_point, spectrum._bisect

        def counting_point(terms, energy):
            if open_bisections:
                open_bisections[-1] += 1
            return point(terms, energy)

        def counting_bisect(*args):
            open_bisections.append(0)
            try:
                return bisect(*args)
            finally:
                steps.append(open_bisections.pop())

        monkeypatch.setattr(spectrum, "_f_point", counting_point)
        monkeypatch.setattr(spectrum, "_bisect", counting_bisect)
        res = solve_spectrum(eq, SolveOptions(bisect_tol=1e-300, oracle_check=False))
        assert [r.energy for r in res.roots] == [-4.672750522580428, 4.849764677491084]
        assert len(steps) == 2 and max(steps) <= 64, steps


class TestBisectRecovery:
    """Bisection steps past a midpoint where f is undefined by trying the
    quarter points; f here is E - root with a NaN gap inside the bracket."""

    @staticmethod
    def patch_f(monkeypatch, root, gap):
        def f_point(terms, energy):
            f = math.nan if gap[0] < energy < gap[1] else energy - root
            return f, 0.0, 0.0, 0.0

        monkeypatch.setattr(spectrum, "_f_point", f_point)

    # the first midpoint 0.5 is in the gap; the lower quarter point 0.25 is
    # finite in the first case, only the upper one 0.75 in the second
    @pytest.mark.parametrize("root, gap", [(0.3, (0.45, 0.55)), (0.8, (0.2, 0.55))])
    def test_converges_past_an_undefined_midpoint(self, monkeypatch, root, gap):
        self.patch_f(monkeypatch, root, gap)
        energy = spectrum._bisect(None, 0.0, 1.0, -root, 1.0 - root, OPTS)
        assert abs(energy - root) <= OPTS.bisect_tol

    def test_both_quarter_points_undefined_raises(self, monkeypatch):
        self.patch_f(monkeypatch, 0.9, (0.2, 0.8))
        with pytest.raises(NoRootFound, match=r"undefined inside bracket \(0\.0, 1\.0\)"):
            spectrum._bisect(None, 0.0, 1.0, -0.9, 0.1, OPTS)


def pinned_equations(ref):
    """The README state, then every bundled cell, spin cells in both assemblies."""
    eqs = [build_equation(ps_params(1.0), StateIndex(1, -1))]
    for c in ref.cells:
        assemblies = ((ASSEMBLY_STRICT,) if c.symmetry == PSEUDOSPIN
                      else (ASSEMBLY_REFERENCE, ASSEMBLY_STRICT))
        eqs += [build_equation(ref.params(c.symmetry, c.tensor_h), c.state, a)
                for a in assemblies]
    return eqs


def repr_digest(values):
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode("utf-8") + b"\n")
    return h.hexdigest()


class TestPinnedResults:
    """Whole results, every root and every OracleResult field included.  The
    solve and oracle digests were re-pinned when the oracle moved from the
    E-form sextic to U in u; ROOTS, the roots alone, is the E-form oracle's."""

    SOLVE = "4003d4b3e26d6ca8c7b8c8a8ed872799ea235c4486935c0a7e2ac58d712ef8bf"
    ORACLE = "4dbdf7849a5510e6e410ba435b8a931ae193b69ff8e6efdf33ee2a8358726e85"
    ROOTS = "2c3212b7c3ce061f35c059068386081d26179f1c412462d0d5cfb498076e37ee"

    def test_solve_spectrum_results(self, ref):
        eqs = pinned_equations(ref)
        assert len(eqs) == 97
        results = [solve_spectrum(eq) for eq in eqs]
        assert repr_digest(results) == self.SOLVE
        assert repr_digest(res.roots for res in results) == self.ROOTS

    def test_oracle_without_window(self, ref):
        assert repr_digest(quartic_oracle(eq) for eq in pinned_equations(ref)) == self.ORACLE


class TestOnePass:
    """The oracle's verdict comes before the scan, and each root is built once."""

    def test_oracle_off_roots_differ_only_in_method(self, ref):
        off = SolveOptions(oracle_check=False)
        count = 0
        for eq in pinned_equations(ref):
            on, alone = solve_spectrum(eq), solve_spectrum(eq, off)
            assert alone.oracle is None and on.oracle is not None
            assert all(r.method == "bisection" for r in alone.roots)
            assert all(r.method == "oracle-confirmed" for r in on.roots)
            as_bisection = tuple(dataclasses.replace(r, method="bisection") for r in on.roots)
            assert alone.roots == as_bisection
            assert alone == dataclasses.replace(
                on, roots=as_bisection, oracle=None,
                selected=on.selected and dataclasses.replace(on.selected, method="bisection"))
            count += len(alone.roots)
        assert count > 97

    @pytest.mark.parametrize("oracle_check", [True, False])
    def test_constants_then_oracle_then_scan(self, oracle_check, monkeypatch):
        # every scan starts with its bound pass.  The radicand sliver's window
        # holds packed samples, so the scan runs after the oracle too; the
        # README state's window has none, and its oracle's certificate takes
        # the scan's place (TestOracleFirst)
        calls = []
        for name in ("_f_terms", "quartic_oracle", "_f_bounds"):
            def traced(*args, _name=name, _fn=getattr(spectrum, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectrum, name, traced)
        params, state, assembly, _ = TestScalarTwin.PINNED["radicand_sliver"]
        eq = build_equation(params, state, assembly)
        assert spectrum._scan_samples(eq.terms, *search_window(eq), OPTS.grid_points).slots
        solve_spectrum(eq, SolveOptions(oracle_check=oracle_check))
        firsts = sorted(set(calls), key=calls.index)
        expected = ["_f_terms", "quartic_oracle", "_f_bounds"]
        assert firsts == (expected if oracle_check else ["_f_terms", "_f_bounds"])

    @pytest.mark.parametrize("oracle_check", [True, False])
    def test_each_root_built_once(self, oracle_check, monkeypatch):
        built = []

        class Counted(EnergyRoot):
            def __init__(self, **fields):
                built.append(fields["energy"])
                super().__init__(**fields)

        monkeypatch.setattr(spectrum, "EnergyRoot", Counted)
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        res = solve_spectrum(eq, SolveOptions(oracle_check=oracle_check))
        assert built == [r.energy for r in res.roots] and len(built) == 2

    def test_refused_polynomial_ends_the_solve_before_the_scan(self, monkeypatch):
        # at H = 1e80, (q - 1/2)^2 is 1e160 and U's coefficients leave the
        # doubles; the oracle's coefficient check refuses the equation
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(spectrum, "_scan", no_scan)
        eq = build_equation(ps_params(1e80), StateIndex(1, -1))
        with pytest.raises(DomainError, match=r"^mass = 5\.0, .*tensor_h = 1e\+80, .* "
                                              r"coefficient of the oracle's"):
            solve_spectrum(eq)
        with pytest.raises(AssertionError, match="the scan ran"):
            solve_spectrum(eq, SolveOptions(oracle_check=False))

    def test_noise_at_mass_1e75_is_a_named_domain_error(self):
        # U stays in the doubles at mass 1e75, so the scan runs; f there is
        # rounding noise, and its roots cannot be matched to the oracle's
        eq = build_equation(ps_params(1.0, mass=1e75), StateIndex(1, -1))
        with pytest.raises(DomainError, match=r"^bisect_tol=1e-12 is too small .*, for "
                                              r"mass = 1e\+75, c_sym = 0\.0$"):
            solve_spectrum(eq)

    def test_noise_at_mass_1e45_ends_at_the_first_unmatched_root(self, monkeypatch):
        # every bracket of the noise is a root the oracle cannot match; the
        # solve raises at the first one instead of bisecting the thousands
        calls = []
        bisect_one = spectrum._bisect

        def counting(*args):
            calls.append(args[1])
            return bisect_one(*args)

        monkeypatch.setattr(spectrum, "_bisect", counting)
        eq = build_equation(ps_params(1.0, mass=1e45), StateIndex(1, -1))
        with pytest.raises(DomainError) as info:
            solve_spectrum(eq)
        assert str(info.value) == (
            "bisect_tol=1e-12 is too small to match roots near -9.99824999000175e+44 to the "
            "oracle; the smallest bisect_tol that always resolves them there is "
            "3.1691265005705736e+26, for mass = 1e+45, c_sym = 0.0")
        assert 1 <= len(calls) <= 3


def log_mass_equations(count, seed):
    """``draw_case`` states with the mass redrawn log-uniform in (1, 100) and
    c_sym scaled with it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        case = draw_case(rng)
        mass = math.exp(rng.uniform(0.0, math.log(100.0)))
        params = ModelParams(**dict(case.params(), mass=mass,
                                    c_sym=case.c_sym / case.mass * mass))
        out.append(build_equation(params, StateIndex(case.n, case.kappa), case.assembly))
    return out


def signed_zero_equations():
    """C_sym and H of +-0.0 in every limit and assembly, at A = 5 and at A = 4,
    where V3 vanishes too."""
    kinds = ((PSEUDOSPIN, ASSEMBLY_STRICT), (SPIN, ASSEMBLY_REFERENCE), (SPIN, ASSEMBLY_STRICT))
    out = []
    for (symmetry, assembly), c_sym, tensor_h, a_shape in itertools.product(
            kinds, (0.0, -0.0), (0.0, -0.0), (5.0, 4.0)):
        params = ModelParams(mass=5.0, symmetry=symmetry, c_sym=c_sym, tensor_h=tensor_h,
                             a_shape=a_shape, strict_domain=False)
        out += [build_equation(params, StateIndex(n, kappa), assembly)
                for n in range(3) for kappa in (-2, -1, 1, 2)]
    return out


def exact_terms(eq):
    """The constants of f as the exact rationals of their doubles."""
    t = eq.terms
    return t._replace(**{name: Fraction(value) for name, value in t._asdict().items()})


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(*polys):
    return [sum(c) for c in itertools.zip_longest(*polys, fillvalue=0)]


def poly_scale(k, p):
    return [k * c for c in p]


def e_form_sextic(t):
    """The oracle's polynomial before U, lowest degree first: with W = 2n + 1,
    Q9 = 4 c9, Q8 = 4 c8 and R = 4 A as polynomials in E, isolating and
    squaring each radical of (W + sqrt(Q9) - sqrt(Q8))^2 = R in turn gives

        S1 = W^2 + Q9 + Q8 - R
        P = (S1^2 - 4 Q9 Q8 + 4 W^2 Q9 - 4 W^2 Q8)^2 - 16 W^2 Q9 (2 Q8 - S1)^2."""
    x = [0, t.mirror]
    w = poly_scale(t.w_scale, poly_add(x, [-t.mass - t.c_sym]))
    b = poly_scale(1 / t.four_a2, poly_mul(poly_add(x, [t.mass]),
                                           poly_add(poly_scale(-1, x), [t.mass + t.c_sym])))
    q9 = poly_scale(4, poly_add([t.c9_base], poly_scale(t.v_total, w)))
    q8 = poly_scale(4, poly_add([t.ll_c0], poly_scale(t.v3, w), b))
    r = poly_scale(4, poly_add([t.ll_c0], poly_scale(t.v1, w), b))
    w2 = t.width * t.width
    s1 = poly_add([w2], q9, q8, poly_scale(-1, r))
    bracket = poly_add(poly_mul(s1, s1), poly_scale(-4, poly_mul(q9, q8)),
                       poly_scale(4 * w2, q9), poly_scale(-4 * w2, q8))
    t2 = poly_add(poly_scale(2, q8), poly_scale(-1, s1))
    return poly_add(poly_mul(bracket, bracket),
                    poly_scale(-16 * w2, poly_mul(q9, poly_mul(t2, t2))))


class TestUFactorsTheSextic:
    """U(u) U(-u) is the E-form sextic P at E(u), exactly: U is the factor of P
    that holds the roots of f, and U(-u) the mirror u -> -u."""

    def test_exact_identity(self, ref):
        eqs = (pinned_equations(ref) + log_mass_equations(40, "u factors the sextic")
               + signed_zero_equations())
        for eq in eqs:
            t = exact_terms(eq)
            u_poly = spectrum._u_polynomial(t)
            assert all(isinstance(c, Fraction) for c in u_poly) and len(u_poly) == 7
            mirror = [c if k % 2 == 0 else -c for k, c in enumerate(u_poly)]
            # E(u) = sigma (w / w_scale + M + sigma C), w = (u^2 / 4 - (q - 1/2)^2) / V
            e_of_u = poly_scale(t.mirror, [-t.c9_base / t.v_total / t.w_scale + t.mass + t.c_sym,
                                           0, 1 / (4 * t.v_total * t.w_scale)])
            p_of_u = [0]
            for c in reversed(e_form_sextic(t)):
                p_of_u = poly_add(poly_mul(p_of_u, e_of_u), [c])
            assert not any(poly_add(p_of_u, poly_scale(-1, poly_mul(u_poly, mirror)))), eq
            # the oracle's coefficients are these, built in doubles
            coeffs = quartic_oracle(eq).coefficients
            assert coeffs == tuple(spectrum._u_polynomial(eq.terms)[::-1])
            assert u_poly[6] > 0 and coeffs[0] > 0.0


class TestScanAndCache:
    """The in-place scan leaves its input alone, and an oracle sees only its own equation."""

    def test_f_arrays_reads_its_input_only(self):
        equations = [build_equation(ps_params(1.0), StateIndex(1, -1)),
                     build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)]
        equations += seeded_equations(6, seed="in-place scan")
        for eq in equations:
            grid = solve_grid(eq)
            before = grid.tobytes()
            grid.flags.writeable = False
            f = spectrum._f_arrays(eq.terms, grid)
            assert grid.tobytes() == before
            assert f.shape == grid.shape and not np.shares_memory(f, grid)

    def test_grid_merge_in_a_window_a_few_ulps_wide(self):
        # the window holds 113 doubles, so linspace repeats samples; the packed
        # grid must still be the sorted unique samples, as np.unique made it
        params = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=-10.0 + 1e-13,
                             tensor_h=1.0, strict_domain=False)
        eq = build_equation(params, StateIndex(1, -1))
        opts = SolveOptions(margin=1e-30, oracle_check=False)
        assert spectrum._radicand_boundaries(eq.terms, *search_window(eq, opts.margin))
        grid = solve_grid(eq, opts)
        assert grid.size == 113 and np.array_equal(grid, np.unique(grid))
        assert "of 113 grid points" in solve_spectrum(eq, opts).selection_note

    @pytest.mark.parametrize("make", [
        lambda: build_equation(ps_params(1.0), StateIndex(1, -1)),
        lambda: build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT),
        lambda: build_equation(spin_params(1.0), StateIndex(0, -2)),
    ])
    def test_direct_oracle_equals_the_solve_oracle(self, make):
        eq = make()
        direct = quartic_oracle(eq, window=search_window(eq))  # fresh equation
        assert repr(solve_spectrum(eq, OPTS).oracle) == repr(direct)
        eq = make()
        solved = solve_spectrum(eq, OPTS).oracle
        assert repr(quartic_oracle(eq, window=search_window(eq))) == repr(solved)

    def test_replaced_params_do_not_see_the_old_cache(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        old = quartic_oracle(eq)
        moved = build_equation(dataclasses.replace(eq.params, tensor_h=0.5), eq.state)
        fresh = build_equation(ps_params(0.5), StateIndex(1, -1))
        assert repr(quartic_oracle(moved)) == repr(quartic_oracle(fresh)) != repr(old)
        assert repr(solve_spectrum(moved, OPTS)) == repr(solve_spectrum(fresh, OPTS))
        other = dataclasses.replace(eq, state=StateIndex(2, -1))
        assert repr(quartic_oracle(other)) == repr(
            quartic_oracle(build_equation(ps_params(1.0), StateIndex(2, -1))))


KINDS = ((PSEUDOSPIN, ASSEMBLY_STRICT), (SPIN, ASSEMBLY_REFERENCE), (SPIN, ASSEMBLY_STRICT))


def full_scan(terms, grid):
    """The scan as it was written before blocks: f at every grid point."""
    with spectrum.within_doubles(lambda: "the scan"):
        f = spectrum._f_arrays(terms, grid)
    valid = np.isfinite(f)
    with np.errstate(over="ignore"):
        change = (f[:-1] * f[1:] < 0.0) & valid[:-1] & valid[1:]
    brackets = [(float(grid[i]), float(grid[i + 1]), float(f[i]), float(f[i + 1]))
                for i in np.flatnonzero(change)]
    return spectrum._Scan(brackets, grid[valid & (f == 0.0)].tolist(),
                          int(np.count_nonzero(~valid)))


def outcome(scan, terms, grid):
    try:
        return repr(scan(terms, grid))
    except DomainError as exc:
        return f"DomainError: {exc}"


def scan_cases():
    """(equation, margin, grid_points): draws with masses log-uniform up to
    1e8 in every limit and assembly, then the edge cases named below."""
    rng = random.Random("certified scan")
    cases = []
    for i in range(150):
        case = draw_case(rng)
        mass = math.exp(rng.uniform(0.0, math.log(1e8)))
        params = ModelParams(**dict(case.params(), mass=mass,
                                    c_sym=case.c_sym / case.mass * mass))
        points = (20001, 2001, 3, 4)[i % 4]
        cases.append((build_equation(params, StateIndex(case.n, case.kappa), case.assembly),
                      None, points))
    # the 113-point window, packed against its radicand boundaries
    narrow = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=-10.0 + 1e-13, tensor_h=1.0,
                         strict_domain=False)
    cases.append((build_equation(narrow, StateIndex(1, -1)), 1e-30, 20001))
    for mass in (1e45, 1e160):  # f is rounding noise; f's terms leave the doubles
        for points in (20001, 3):
            cases.append((build_equation(ps_params(1.0, mass=mass), StateIndex(1, -1)),
                          None, points))
    # every block has a negative radicand, and b2 leaves the doubles in most
    cases.append((build_equation(spin_params(1.0, mass=2e154), StateIndex(0, -2)), None, 20001))
    # a root in the radicand sliver and a spin reference cell
    cases.append((build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT), None, 20001))
    cases.append((build_equation(spin_params(1.0), StateIndex(0, -2)), None, 20001))
    return cases


class TestCertifiedScan:
    """The blocked scan finds what f at every grid point finds, and the
    interval bounds it settles blocks with enclose f."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        log_mass=st.floats(min_value=0.0, max_value=math.log(1e8)),
        c_frac=st.floats(min_value=-0.99, max_value=0.99),
        tensor_h=st.floats(min_value=-3.0, max_value=3.0),
        alpha=st.floats(min_value=0.5, max_value=3.0, exclude_min=True),
        a_shape=st.floats(min_value=4.0, max_value=8.0, exclude_min=True, exclude_max=True),
        n=st.integers(min_value=0, max_value=5),
        kappa=st.integers(min_value=-6, max_value=6).filter(bool),
        kind=st.sampled_from(KINDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bounds_enclose_f_arrays(self, log_mass, c_frac, tensor_h, alpha, a_shape, n,
                                     kappa, kind, seed):
        symmetry, assembly = kind
        mass = math.exp(log_mass)
        params = ModelParams(mass=mass, symmetry=symmetry, c_sym=c_frac * mass,
                             tensor_h=tensor_h, alpha=alpha, a_shape=a_shape)
        eq = build_equation(params, StateIndex(n, kappa), assembly)
        terms = eq.terms
        lo, hi = search_window(eq)
        # 16 blocks of widths from the whole window down to 1e-12 of it, around
        # random points, the radicand boundaries and the zeros of
        # W + sqrt(4 c9) - sqrt(4 c8), where the square's bound starts at 0
        rng = np.random.default_rng(seed)
        centers = rng.uniform(lo, hi, 16)
        coarse = np.linspace(lo, hi, 201)
        base = [spectrum._f_point(terms, e) for e in coarse.tolist()]
        d = np.array([terms.width + math.sqrt(q9) - math.sqrt(q8) if min(q8, q9) >= 0.0
                      else math.nan for _, q8, q9, _ in base])
        crossings = coarse[np.flatnonzero(d[:-1] * d[1:] < 0.0)].tolist()
        special = spectrum._radicand_boundaries(terms, lo, hi) + crossings
        centers[:len(special[:16])] = special[:16]
        half = (hi - lo) * 10.0 ** rng.uniform(-12.0, 0.0, 16)
        e_lo, e_hi = np.maximum(centers - half, lo), np.minimum(centers + half, hi)
        f_b, q8_b, q9_b, a4_b = spectrum._f_bounds(terms, e_lo, e_hi)
        unclamped = terms._replace(clamp=0.0)
        for k in range(16):
            inside = np.clip(rng.uniform(e_lo[k], e_hi[k], 30), e_lo[k], e_hi[k])
            energies = np.concatenate([[e_lo[k], e_hi[k]], inside])
            f = spectrum._f_arrays(terms, energies)
            points = [spectrum._f_point(unclamped, e) for e in energies.tolist()]
            for bound, values in ((q8_b, [p[1] for p in points]), (q9_b, [p[2] for p in points]),
                                  (a4_b, [p[3] for p in points])):
                low, high = bound[:, k]
                if not (math.isnan(low) or math.isnan(high)):
                    assert all(low <= v <= high for v in values), (k, low, high, values)
            low, high = f_b[:, k]
            if math.isfinite(low) and math.isfinite(high):
                assert np.isfinite(f).all() and ((low <= f) & (f <= high)).all(), (k, low, high)
            if q8_b[1, k] < terms.clamp or q9_b[1, k] < terms.clamp:
                assert np.isnan(f).all(), k

    def test_square_across_zero_starts_at_zero(self):
        # b2 / (4 alpha^2) negligible and V1 = V3 = 0 make 4 A = 16 and
        # 4 c8 = 16 constant, while 4 c9 = 4 (11 - E); so W + sqrt(4 c9) - sqrt(4 c8)
        # = 2 sqrt(11 - E) - 3 vanishes at E = 8.75, where f = -16 exactly
        terms = spectrum._FTerms(mirror=1.0, mass=10.0, c_sym=0.0, ll_c0=4.0, c9_base=1.0,
                                 w_scale=1.0, four_a2=1e300, v1=0.0, v3=0.0, v_total=-1.0,
                                 width=1.0, clamp=-4e-12)
        assert spectrum._f_point(terms, 8.75)[0] == -16.0
        f, q8, q9, a4 = spectrum._f_bounds(terms, np.array([8.0]), np.array([9.5]))
        assert f[0, 0] == -16.0 and f[1, 0] == pytest.approx((2 * math.sqrt(1.5) - 3) ** 2 - 16)
        assert (q8[:, 0] == 16.0).all() and (a4[:, 0] == 16.0).all()
        assert q9[:, 0].tolist() == [6.0, 12.0]

    @pytest.mark.parametrize("masked_parity", [0, 1])
    def test_brackets_never_join_two_runs(self, masked_parity, monkeypatch):
        # bounds that call every other block masked leave runs of one block
        # each; each bracket still pairs two consecutive grid points
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        lo, hi = search_window(eq)
        terms = eq.terms
        grid = spectrum._scan_grid(terms, lo, hi, 20001)
        f_bounds = spectrum._f_bounds

        def every_other_masked(t, e_lo, e_hi):
            f, q8, q9, a4 = (np.array(b) for b in f_bounds(t, e_lo, e_hi))
            f[:] = np.nan
            q8[:, masked_parity::2] = 2.0 * t.clamp
            return f, q8, q9, a4

        monkeypatch.setattr(spectrum, "_f_bounds", every_other_masked)
        scan = spectrum._scan(terms, spectrum._scan_samples(terms, lo, hi, 20001), str)
        full = full_scan(terms, grid)
        at = np.searchsorted(grid, [b[0] for b in scan.brackets])
        assert [grid[i + 1] for i in at] == [b[1] for b in scan.brackets]
        assert set(scan.brackets) <= set(full.brackets) and len(full.brackets) == 2

    def test_same_scan_as_the_full_grid(self, monkeypatch):
        evaluated = []
        f_arrays = spectrum._f_arrays

        def counting(terms, energies, *rest):
            evaluated.append(energies.size)
            return f_arrays(terms, energies, *rest)

        light = light_evaluated = brackets = zeros = masked = errors = with_boundaries = 0
        for eq, margin, points in scan_cases():
            evaluated.clear()
            lo, hi = search_window(eq, margin)
            terms = eq.terms
            grid = spectrum._scan_grid(terms, lo, hi, points)
            want = outcome(full_scan, terms, grid)
            monkeypatch.setattr(spectrum, "_f_arrays", counting)
            samples = spectrum._scan_samples(terms, lo, hi, points)
            got = outcome(lambda t, s: spectrum._scan(t, s, lambda: "the scan"), terms, samples)
            monkeypatch.setattr(spectrum, "_f_arrays", f_arrays)
            assert got == want, (eq, margin, points)
            if eq.params.mass < 1e3:
                light += grid.size
                light_evaluated += sum(evaluated)
            if want.startswith("DomainError"):
                errors += 1
                continue
            scan = full_scan(terms, grid)
            brackets += len(scan.brackets)
            zeros += len(scan.zeros)
            masked += scan.masked > 0
            with_boundaries += bool(spectrum._radicand_boundaries(terms, lo, hi))
        # every kind of outcome is covered, and below mass 1e3 most points were
        # never evaluated
        assert min(brackets, zeros, masked, errors, with_boundaries) > 0
        assert light_evaluated < 0.2 * light, (light_evaluated, light)


def exact_f(terms, energy, mp):
    """f and df/dE of the constants ``terms`` at ``energy``, both in mpmath
    at 60 digits: the real function that the computed f approximates."""
    mp.mp.dps = 60
    mirror, mass, c_sym, ll_c0, c9_base, w_scale, four_a2, v1, v3, v_total, width, _ = (
        mp.mpf(c) for c in terms)
    x = mirror * mp.mpf(energy)
    w = (x - mass - c_sym) * w_scale
    b = (mass + x) * (mass - x + c_sym) / four_a2
    u = mp.sqrt(4 * (c9_base + w * v_total))
    v = mp.sqrt(4 * (ll_c0 + w * v3 + b))
    d = width + u - v
    k = (c_sym - 2 * x) / four_a2
    slope = 2 * d * (2 * w_scale * v_total / u - 2 * (w_scale * v3 + k) / v) - 4 * (w_scale * v1 + k)
    return d * d - 4 * (ll_c0 + w * v1 + b), mirror * slope


def zero_terms():
    """Constants whose f = (sqrt(4 (11 - E)) - 3)^2 - 16 falls strictly on
    [-5, 5] and is exactly 0 at E = -1.25 (4 c9 = 49 there), b2 negligible."""
    return spectrum._FTerms(mirror=1.0, mass=10.0, c_sym=0.0, ll_c0=4.0, c9_base=1.0,
                            w_scale=1.0, four_a2=1e300, v1=0.0, v3=0.0, v_total=-1.0,
                            width=1.0, clamp=-4e-12)


class TestMonotoneRuns:
    """A run of open blocks, or a bracket, on which an interval bound of f'
    proves f strictly monotone is settled from a few values of f, with the
    brackets, zeros and roots of the plain scan and bisection, bit for bit."""

    @staticmethod
    def intervals(eq, rng):
        """Intervals of the solve's window: the brackets of a 2001-sample
        scan and random ones of widths 1e-12 of the window to all of it."""
        lo, hi = search_window(eq)
        terms = eq.terms
        scan = spectrum._scan(terms, spectrum._scan_samples(terms, lo, hi, 2001), str)
        out = [(a, b) for a, b, _, _ in scan.brackets]
        for _ in range(4):
            half = (hi - lo) * 10.0 ** rng.uniform(-12.0, 0.0)
            center = rng.uniform(lo, hi)
            a, b = max(center - half, lo), min(center + half, hi)
            if a < b:
                out.append((a, b))
        return out

    def test_slope_bound_encloses_f_and_its_derivative(self):
        # at each of a dozen doubles of every certified interval, the computed
        # f is within eps of the exact one and the exact f' has the slope's
        # sign and at least its size
        mp = pytest.importorskip("mpmath")
        rng = random.Random("slope bound")
        certified = refused = 0
        for i in range(60):
            case = draw_case(rng)
            mass = math.exp(rng.uniform(0.0, math.log(1e5)))
            params = ModelParams(**dict(case.params(), mass=mass,
                                        c_sym=case.c_sym / case.mass * mass))
            eq = build_equation(params, StateIndex(case.n, case.kappa), case.assembly)
            terms = eq.terms
            for a, b in self.intervals(eq, rng):
                cert = spectrum._slope_bound(terms, a, b)
                if cert is None:
                    refused += 1
                    continue
                certified += 1
                slope, eps = cert
                points = [a, b, math.nextafter(a, b), math.nextafter(b, a)]
                points += [rng.uniform(a, b) for _ in range(8)]
                for e in points:
                    f, f_prime = exact_f(terms, e, mp)
                    assert abs(spectrum._f_point(terms, e)[0] - f) <= eps, (eq, a, b, e)
                    assert f_prime * slope > 0 and abs(f_prime) >= abs(slope), (eq, a, b, e)
        assert certified > 150 and refused > 10, (certified, refused)

    def test_none_across_a_turning_point_or_a_radicand_boundary(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        terms = eq.terms
        # f falls from -5 to its minimum and rises again to 5
        assert spectrum._slope_bound(terms, -4.9, 4.9) is None
        sliver = build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)
        (edge,) = spectrum._radicand_boundaries(sliver.terms, *search_window(sliver))
        # 4 c8 is negative past the boundary: across it or beyond it, no
        # certificate; just before it, with the root, one
        assert spectrum._slope_bound(sliver.terms, edge - 1e-5, edge + 1e-5) is None
        assert spectrum._slope_bound(sliver.terms, edge + 1e-7, edge + 1e-5) is None
        slope, eps = spectrum._slope_bound(sliver.terms, edge - 1e-5, edge - 1e-7)
        assert slope > 0.0 and 0.0 < eps < 1e-8

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-15, 1e-100, 1e-300])
    def test_certified_bisection_is_plain_bisection(self, tol, monkeypatch):
        rng = random.Random(f"replay {tol}")
        opts = SolveOptions(bisect_tol=tol)
        brackets, passed = [], []
        for eq in seeded_equations(90, seed="replay") + [build_equation(ps_params(1.0),
                                                                         StateIndex(1, -1))]:
            lo, hi = search_window(eq)
            roots = []
            oracle = quartic_oracle(eq, (lo, hi), _roots=roots)
            for points in (20001, 201, 3):
                samples = spectrum._scan_samples(eq.terms, lo, hi, points)
                scan = spectrum._scan(eq.terms, samples, str)
                brackets += [(eq.terms, bracket) for bracket in scan.brackets]
                # the certificates a caller passes: of the monotone run that
                # holds a bracket, and C2's of the neighbourhood of its cell
                passed += [(eq.terms, bracket, scan.certified[bracket[0]])
                           for bracket in scan.brackets if bracket[0] in scan.certified]
                found = sextic._certified_brackets(eq.terms, samples, oracle.survivors,
                                                   oracle.coefficients, roots)
                passed += [(eq.terms, bracket, found[1][bracket[0]]) for bracket in found[0]
                           ] if found else []
        certified = sum(spectrum._slope_bound(t, a, b) is not None for t, (a, b, _, _) in brackets)
        replayed = [spectrum._bisect(t, *bracket, opts) for t, bracket in brackets]
        given = [spectrum._bisect(t, *bracket, opts, cert) for t, bracket, cert in passed]
        monkeypatch.setattr(spectrum, "_slope_bound", lambda *args: None)
        plain = [spectrum._bisect(t, *bracket, opts) for t, bracket in brackets]
        assert same_bits(replayed, plain)
        # a passed certificate that leaves rho within 32 bisect_tol is read as
        # it is; with _slope_bound gone, a wider one is too
        used = sum(4.0 * eps <= 32.0 * tol * abs(slope) for _, _, (slope, eps) in passed)
        assert same_bits([spectrum._bisect(t, *bracket, opts, cert) for t, bracket, cert in passed],
                         given)
        assert same_bits(given, [spectrum._bisect(t, *bracket, opts) for t, bracket, _ in passed])
        # the wide brackets of 3 samples are certified about half the time
        assert len(brackets) > 200 and len(brackets) - 50 > certified > 150, (
            len(brackets), certified)
        assert len(passed) > 150 and (used > 100 or tol < 1e-14), (len(passed), used)

    def test_readme_state_evaluates_no_block_and_few_points(self, monkeypatch):
        evaluated, per_root, bisecting = [], [], []
        f_arrays, f_point, bisect_one = spectrum._f_arrays, spectrum._f_point, spectrum._bisect

        def counting_arrays(*args):
            evaluated.append(args[1].size)
            return f_arrays(*args)

        def counting_point(*args):
            if bisecting:
                bisecting[-1] += 1
            return f_point(*args)

        def counting_bisect(*args):
            bisecting.append(0)
            try:
                return bisect_one(*args)
            finally:
                per_root.append(bisecting.pop())

        monkeypatch.setattr(spectrum, "_f_arrays", counting_arrays)
        monkeypatch.setattr(spectrum, "_f_point", counting_point)
        monkeypatch.setattr(spectrum, "_bisect", counting_bisect)
        # the scan, not the oracle's certificate (TestOracleFirst counts that)
        monkeypatch.setattr(spectrum, "_oracle_scan", lambda *args: None)
        params, state, assembly, roots = TestScalarTwin.PINNED["readme"]
        assert solve_spectrum(build_equation(params, state, assembly)).roots == roots
        # about 31 calls a root by plain bisection
        assert evaluated == [] and len(per_root) == 2 and max(per_root) <= 12, per_root

    def test_runs_match_an_evaluation_of_every_sample(self, monkeypatch):
        # every run _monotone_run settles, against f at each of its samples;
        # and the scan's result, against the full grid's
        settled = []
        monotone_run = spectrum._monotone_run

        def recording(t, s, a, b, closing):
            found = monotone_run(t, s, a, b, closing)
            if found is not None:
                settled.append((t, s, a, b, closing, found))
            return found

        monkeypatch.setattr(spectrum, "_monotone_run", recording)
        # above mass 1e3 few runs are certified, so the light states come twice
        light = [(eq, None, points) for eq in seeded_equations(60, seed="monotone runs")
                 for points in (20001, 2001)]
        for eq, margin, points in scan_cases() + light:
            lo, hi = search_window(eq, margin)
            samples = spectrum._scan_samples(eq.terms, lo, hi, points)
            got = outcome(lambda t, s: spectrum._scan(t, s, lambda: "the scan"), eq.terms, samples)
            assert got == outcome(full_scan, eq.terms, spectrum._scan_grid(eq.terms, lo, hi, points))
        brackets = 0
        for t, s, a, b, closing, (found, zeros, cert) in settled:
            assert cert == spectrum._slope_bound(t, s.at(a), s.at(b))
            energies = s.between(a, b)
            f = spectrum._f_arrays(t, energies)
            assert np.isfinite(f).all()
            change = np.flatnonzero(f[:-1] * f[1:] < 0.0)
            assert found == [(float(energies[i]), float(energies[i + 1]), float(f[i]),
                              float(f[i + 1])) for i in change]
            owned = f if closing else f[:-1]
            assert zeros == energies[:owned.size][owned == 0.0].tolist()
            brackets += len(found)
        assert len(settled) > 90 and brackets > 90, (len(settled), brackets)

    @pytest.mark.parametrize("lo, hi, points, closing, zeros", [
        (-5.0, 5.0, 9, True, [-1.25]), (-5.0, -1.25, 4, True, [-1.25]),
        (-5.0, -1.25, 4, False, []), (-1.25, 5.0, 6, False, [-1.25]), (0.0, 5.0, 6, True, [])])
    def test_an_exact_zero_at_a_sample(self, lo, hi, points, closing, zeros):
        # a run owns its last sample only where it ends the scan; f < 0 on [0, 5]
        terms = zero_terms()
        samples = spectrum._scan_samples(terms, lo, hi, points)
        assert samples.slots == [] and spectrum._f_point(terms, -1.25)[0] == 0.0
        assert spectrum._monotone_run(terms, samples, 0, points - 1, closing)[:2] == ([], zeros)
        grid = spectrum._scan_grid(terms, lo, hi, points)
        assert spectrum._scan(terms, samples, str) == full_scan(terms, grid)

    # the README state's roots with grid_points=3, as plain bisection of the
    # two half-window brackets finds them
    GRID_3 = (-4.672750522580662, 4.849764677490898)

    def test_a_non_monotone_run_is_evaluated(self, monkeypatch):
        # grid_points=3 makes the whole window one run of two blocks, with
        # both roots and f's minimum between them
        runs, evaluated = [], []
        monotone_run, f_arrays = spectrum._monotone_run, spectrum._f_arrays
        monkeypatch.setattr(spectrum, "_monotone_run",
                            lambda *args: runs.append(monotone_run(*args)) or runs[-1])
        monkeypatch.setattr(spectrum, "_f_arrays",
                            lambda *args: evaluated.append(args[1].tolist()) or f_arrays(*args))
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        res = solve_spectrum(eq, SolveOptions(grid_points=3))
        assert runs == [None] and evaluated == [[-4.999999995, 0.0, 4.999999995]]
        assert tuple(r.energy for r in res.roots) == self.GRID_3

    def test_a_packed_root_block_is_evaluated(self, monkeypatch):
        # the positive root of the radicand sliver lies in the last block,
        # among the samples packed against the radicand boundary
        runs, evaluated = [], []
        monotone_run, f_arrays = spectrum._monotone_run, spectrum._f_arrays
        monkeypatch.setattr(spectrum, "_monotone_run",
                            lambda *args: runs.append(args[2:4]) or monotone_run(*args))
        monkeypatch.setattr(spectrum, "_f_arrays",
                            lambda *args: evaluated.append(args[1].size) or f_arrays(*args))
        params, state, assembly, roots = TestScalarTwin.PINNED["radicand_sliver"]
        assert solve_spectrum(build_equation(params, state, assembly)).roots == roots
        # the block's 314 uniform samples and 12 packed ones
        assert (19687, 20000) not in runs and evaluated == [326]

    @pytest.mark.parametrize("mass", [1e45, 1e75])
    def test_noise_is_never_certified(self, mass, monkeypatch):
        # f is rounding noise: no run and no bracket gets a certificate, so
        # the scan and bisection are the plain ones (TestOnePass pins the errors)
        certificates = []
        slope_bound = spectrum._slope_bound
        monkeypatch.setattr(spectrum, "_slope_bound",
                            lambda *args: certificates.append(slope_bound(*args)) or certificates[-1])
        eq = build_equation(ps_params(1.0, mass=mass), StateIndex(1, -1))
        with pytest.raises(DomainError, match="bisect_tol=1e-12 is too small"):
            solve_spectrum(eq)
        assert len(certificates) > 0 and set(certificates) == {None}


def domain_equations():
    """TestDomainContract's extreme states that build."""
    eqs = []
    for symmetry, mass, alpha, h in itertools.product(
            (PSEUDOSPIN, SPIN), TestDomainContract.MASSES, TestDomainContract.ALPHAS,
            TestDomainContract.TENSORS):
        params = ModelParams(mass=mass, symmetry=symmetry, tensor_h=h, alpha=alpha)
        for state in (StateIndex(1, -1), StateIndex(0, 2)):
            try:
                eqs.append(build_equation(params, state))
            except SolverError:
                pass
    return eqs


class TestOracleFirst:
    """Where the oracle's roots certify what the scan would find
    (sextic._certified_brackets), a solve takes the brackets from them and
    does not scan: every root, selection, note, oracle and error stays the
    scan's, bit for bit.  The certificates read LAPACK's eigenvalues and
    the scalar f, so this runs with numpy's SIMD kernels off too."""

    @staticmethod
    def spy(monkeypatch):
        """The outcomes of spectrum._oracle_scan, None where it declined."""
        seen = []
        oracle_scan = spectrum._oracle_scan
        monkeypatch.setattr(spectrum, "_oracle_scan",
                            lambda *args: seen.append(oracle_scan(*args)) or seen[-1])
        return seen

    @staticmethod
    def scanned(eqs, opts, monkeypatch):
        """Each equation's outcome alone and batched, with the certificate
        declined, so that every solve scans."""
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "_oracle_scan", lambda *args: None)
            return one_at_a_time(eqs, opts), batched(eqs, opts)

    @pytest.mark.parametrize("which", ["seeded", "bundled", "domain"])
    def test_same_outcome_as_the_scan(self, which, ref, monkeypatch):
        if which == "seeded":
            eqs = seeded_equations(2100, "oracle first", 1e4)
        elif which == "bundled":
            eqs = pinned_equations(ref)
        else:
            eqs = domain_equations()
        alone, together = self.scanned(eqs, OPTS, monkeypatch)
        seen = self.spy(monkeypatch)
        assert one_at_a_time(eqs, OPTS) == alone
        first = len(seen)
        answered = sum(scan is not None for scan in seen)
        assert batched(eqs, OPTS) == together
        assert answered == sum(scan is not None for scan in seen[first:])
        least = {"seeded": 500, "bundled": 50, "domain": 10}[which]
        assert answered > least, (which, answered, len(eqs))

    def test_answers_nearly_every_light_solve(self, monkeypatch):
        # of the solves at masses 1 to 10 whose window has no packed samples
        # and that select a root, the certificate answers at least 95 %
        seen = self.spy(monkeypatch)
        taken = eligible = 0
        for eq in seeded_equations(3000, "light", 10.0):
            try:
                res = solve_spectrum(eq, OPTS)
            except SolverError:
                continue
            samples = spectrum._scan_samples(eq.terms, *res.window, OPTS.grid_points)
            if not samples.slots and res.selected is not None:
                eligible += 1
                taken += seen[-1] is not None
        assert eligible > 150 and taken >= 0.95 * eligible, (taken, eligible)

    def test_readme_state_scans_nothing(self, monkeypatch):
        # the oracle runs first; then no bound pass and no evaluation of f on
        # arrays, and bisection takes C2's certificate
        calls, per_root, bisecting = [], [], []
        for name in ("quartic_oracle", "_f_bounds", "_f_arrays"):
            def traced(*args, _name=name, _fn=getattr(spectrum, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectrum, name, traced)
        f_point, bisect_one = spectrum._f_point, spectrum._bisect

        def counting_point(*args):
            if bisecting:
                bisecting[-1] += 1
            return f_point(*args)

        def counting_bisect(*args):
            bisecting.append(0)
            try:
                return bisect_one(*args)
            finally:
                per_root.append(bisecting.pop())

        monkeypatch.setattr(spectrum, "_f_point", counting_point)
        monkeypatch.setattr(spectrum, "_bisect", counting_bisect)
        seen = self.spy(monkeypatch)
        params, state, assembly, roots = TestScalarTwin.PINNED["readme"]
        assert solve_spectrum(build_equation(params, state, assembly)).roots == roots
        assert calls == ["quartic_oracle"] and seen[0] is not None
        assert len(per_root) == 2 and max(per_root) <= 12, per_root

    def test_windows_without_survivors(self, monkeypatch):
        # a window without a radicand boundary and without a root of f: the
        # certificate proves that the scan finds nothing and masks nothing,
        # so the note's count of 0 is exact
        seen = self.spy(monkeypatch)
        notes = [res.selection_note
                 for res in map(solve_spectrum, seeded_equations(300, "none", 10.0))
                 if seen[-1] is not None and not res.roots]
        assert len(notes) > 10 and all(
            note.endswith("; 0 of 20001 grid points had negative radicands") for note in notes)

    def test_overlapping_discs(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        window = search_window(eq)
        roots = []
        oracle = quartic_oracle(eq, window, _roots=roots)
        samples = spectrum._scan_samples(eq.terms, *window, OPTS.grid_points)

        def certified(centres):
            return sextic._certified_brackets(eq.terms, samples, oracle.survivors,
                                              oracle.coefficients, centres)

        lc, clusters = sextic._inclusion_discs(eq.terms, oracle.coefficients, roots)
        assert lc > 0.0 and [len(cluster) for cluster in clusters] == [1] * 6
        assert all(0.0 < radius < 1e-9 for (_, _, radius), in clusters) and certified(roots)
        # a centre moved 1e-6 off its root gets a disc that reaches back over it
        _, moved = sextic._inclusion_discs(eq.terms, oracle.coefficients,
                                           [roots[0] + 1e-6] + roots[1:])
        assert 1e-6 < moved[0][0][2] < 1e-5
        # one moved halfway to its neighbour, or two centres 1e-9 apart:
        # discs that overlap make one cluster, which reaches into the window
        for centres in ([(roots[0] + roots[1]) / 2] + roots[1:],
                        [roots[0], roots[0] + 1e-9] + roots[2:]):
            _, clusters = sextic._inclusion_discs(eq.terms, oracle.coefficients, centres)
            assert max(map(len, clusters)) > 1 and certified(centres) is None

    def test_a_double_root_of_u_is_one_cluster(self, monkeypatch):
        # at q = -n, U has a double root at u = -(2n + 1), which LAPACK splits
        # into a complex pair 2e-6 apart; their discs overlap, and the pair
        # is one cluster away from the window's u
        eq = build_equation(ps_params(0.0), StateIndex(1, -1))
        assert eq.q == -1.0
        roots = []
        oracle = quartic_oracle(eq, search_window(eq), _roots=roots)
        pair = [z for z in roots if abs(z + 3.0) < 1e-5]
        assert len(pair) == 2 and pair[0].imag == -pair[1].imag != 0.0
        _, clusters = sextic._inclusion_discs(eq.terms, oracle.coefficients, roots)
        assert sorted(map(len, clusters)) == [1, 1, 1, 1, 2]
        seen = self.spy(monkeypatch)
        assert one_at_a_time([eq], OPTS) == self.scanned([eq], OPTS, monkeypatch)[0]
        assert seen[0] is not None

    def test_a_decaying_root_in_the_window(self):
        # U has a root with S < 0 at E = -13.9576 (u = 1.5145), a bound state
        # of the decaying branch that f does not have (ROADMAP item 18),
        # 0.15 below a radicand boundary.  On the window cut short of that
        # boundary the rule holds no packed sample; cut before the root the
        # survivor is certified, cut after it no survivor stands for the root
        # of U, and the certificate fails
        params = ModelParams(mass=9.241297483879778, symmetry=SPIN, c_sym=-7.2302079817492375,
                             tensor_h=0.7055785339839802, alpha=2.2684666338835804,
                             a_shape=4.553979185920221)
        eq = build_equation(params, StateIndex(0, 2))
        lo, hi = search_window(eq)
        roots = []
        oracle = quartic_oracle(eq, (lo, hi), _roots=roots)
        decaying = [u for u, _, branch in (sextic._polish_u(eq.terms, z.real)
                                           for z in roots if not z.imag)
                    if u > 0.0 and branch < 0.0]
        assert len(decaying) == 1 and oracle.survivors == (-15.434545142579003,)
        assert spectrum._radicand_boundaries(eq.terms, lo, -13.85) == []
        for end, certified in ((-14.2, True), (-13.85, False)):
            samples = spectrum._scan_samples(eq.terms, lo, end, OPTS.grid_points)
            found = sextic._certified_brackets(eq.terms, samples, oracle.survivors,
                                               oracle.coefficients, roots)
            assert (found is not None) == certified, end
            assert fcore._f_floor(eq.terms, -15.3, end) is not None

    @pytest.mark.parametrize("grid_points", [3, 4])
    def test_two_survivors_in_one_neighbourhood(self, grid_points, monkeypatch):
        # at 3 samples both README roots have the whole window as their
        # neighbourhood; at 4, both roots of TestCrossCheckBranches' state
        # share a cell
        seen = self.spy(monkeypatch)
        opts = SolveOptions(grid_points=grid_points)
        eq = (build_equation(ps_params(1.0), StateIndex(1, -1)) if grid_points == 3 else
              build_equation(ModelParams(mass=9.695646549768895, c_sym=7.255963151421806,
                                         tensor_h=1.6933592857421633, alpha=1.9780664756666617,
                                         a_shape=6.951612938471577), StateIndex(3, 2)))
        got = one_at_a_time([eq], opts)
        assert seen == [None] and got == self.scanned([eq], opts, monkeypatch)[0]
        assert ("OracleMismatch" in got[0]) == (grid_points == 4)

    @pytest.mark.parametrize("mass", [1e45, 1e75])
    def test_noise_keeps_its_error(self, mass, monkeypatch):
        # TestOnePass pins both texts
        seen = self.spy(monkeypatch)
        eq = build_equation(ps_params(1.0, mass=mass), StateIndex(1, -1))
        with pytest.raises(DomainError, match="bisect_tol=1e-12 is too small"):
            solve_spectrum(eq)
        assert seen == [None]

    def test_huge_alpha_is_left_to_the_scan(self, monkeypatch):
        # TestDomainContract's strict xfail: the scan finds the root that
        # the oracle misses
        seen = self.spy(monkeypatch)
        params = ModelParams(mass=5.0, symmetry=SPIN, tensor_h=-1.0, alpha=1e50,
                             a_shape=4.0000001)
        with pytest.raises(OracleMismatch):
            solve_spectrum(build_equation(params, StateIndex(0, -1), ASSEMBLY_STRICT), OPTS)
        assert seen == [None]


class TestSampleRule:
    """The samples the scan computes by index are _scan_grid's, bit for bit.
    The rule repeats linspace's correctly rounded * and +, so it runs with
    numpy's SIMD kernels off too."""

    @staticmethod
    def assert_same_samples(terms, lo, hi, points):
        grid = spectrum._scan_grid(terms, lo, hi, points)
        samples = spectrum._scan_samples(terms, lo, hi, points)
        assert samples.size == grid.size
        # the block ends and the runs of blocks the scan reads, and every sample
        last = samples.points - 1
        blocks = min(spectrum.SCAN_BLOCKS, last)
        edges = np.arange(blocks + 1) * last // blocks
        at = samples.position(edges)
        assert same_bits(samples.uniform(edges), grid[at])
        for i, j in itertools.combinations(range(0, blocks + 1, max(blocks // 4, 1)), 2):
            assert same_bits(samples.between(int(edges[i]), int(edges[j])),
                             grid[at[i]:at[j] + 1])
        assert same_bits(samples.between(0, last), grid)
        return samples

    def test_scan_cases_at_every_size(self):
        built = packed = 0
        masses = [build_equation(params(1.0, mass=10.0 ** k), StateIndex(1, -1))
                  for params in (ps_params, spin_params) for k in range(0, 161, 16)]
        cases = [(eq, margin) for eq, margin, _ in scan_cases()] + [(eq, None) for eq in masses]
        for (eq, margin), points in itertools.product(cases, (20001, 2001, 4, 3)):
            terms = eq.terms
            samples = self.assert_same_samples(terms, *search_window(eq, margin), points)
            built += samples.table is not None
            packed += bool(samples.slots)
        # the 113-double window builds its grid at 20001 and 2001 points, no other
        assert built == 2 and packed > 100

    def test_windows_a_few_to_many_ulps_wide(self):
        # windows of 1 to 1e7 ulps around a radicand boundary, a few on either
        # side of the step of 8 ulps that selects the rule
        eq = build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)
        terms = eq.terms
        (b,) = spectrum._radicand_boundaries(terms, *search_window(eq))
        rng = random.Random("sample rule")
        rule = 0
        for _ in range(600):
            lo, hi = (b + math.ulp(b) * math.copysign(10.0 ** rng.uniform(0.0, 7.0), side)
                      for side in (-1.0, 1.0))
            samples = self.assert_same_samples(terms, lo, hi, rng.choice((3, 4, 17, 2001, 20001)))
            rule += samples.table is None
        assert 100 < rule < 500


# warm solves at the README state in a fresh interpreter: minor page faults per
# solve over 20 solves after 3 warm-up solves (under pytest the heap is already
# grown, so an in-process count reads 0 even for a scan that faults every time)
_WARM_FAULTS = """
import resource
from dirac_nu.model import PSEUDOSPIN, ModelParams, StateIndex
from dirac_nu.spectrum import build_equation, solve_spectrum

params = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=1.0)
eq = build_equation(params, StateIndex(1, -1))
for _ in range(3):
    solve_spectrum(eq)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    solve_spectrum(eq)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


class TestScanWorkspace:
    """The scan runs in one (5, n) block allocated per solve: warm solves
    fault no pages in, and concurrent solves share no buffer."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the reuse of freed blocks is glibc malloc's")
    def test_warm_solves_fault_no_pages_in(self):
        proc = subprocess.run([sys.executable, "-c", _WARM_FAULTS],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # four separate grid-sized rows fault about 46 pages in per solve
        assert float(proc.stdout) < 1.0

    def test_a_solve_allocates_no_grid(self):
        # the samples are a rule, so only the evaluated blocks take memory:
        # about 56 KiB at the README state, where a 20001-point grid took 207
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        solve_spectrum(eq)
        tracemalloc.start()
        try:
            solve_spectrum(eq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_concurrent_solves_reproduce_the_pinned_results(self, ref):
        eqs = pinned_equations(ref)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve_spectrum, eqs))
        assert repr_digest(results) == TestPinnedResults.SOLVE

    def test_f_arrays_without_out_returns_fresh_memory(self):
        # TestMirror compares two such calls: a shared buffer would make it vacuous
        eq = build_equation(spin_params(1.0), StateIndex(0, -2))
        grid = np.linspace(*search_window(eq), 2001)
        terms = eq.terms
        first, second = spectrum._f_arrays(terms, grid), spectrum._f_arrays(terms, grid)
        assert not np.shares_memory(first, second)
        assert same_bits(first, second)


def one_at_a_time(eqs, opts):
    """solve_spectrum's result repr, or its error's type and text, per equation."""
    out = []
    for eq in eqs:
        try:
            out.append(repr(solve_spectrum(eq, opts)))
        except SolverError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def batched(eqs, opts):
    """The same from one batch."""
    return [f"{type(o).__name__}: {o}" if isinstance(o, SolverError) else repr(o)
            for o in spectrum._solve_all(eqs, opts)]


def sweep_equations():
    """The equations of the benchmark's two h_sweeps, as h_sweep builds them."""
    eqs = []
    for symmetry, (neg, pos) in SWEEP_DOUBLETS.items():
        for h in SWEEP_H:
            params = ModelParams(mass=5.0, symmetry=symmetry, c_sym=0.0, tensor_h=h)
            states = (neg,) if h == 0.0 else (neg, pos)
            eqs += [build_equation(params, StateIndex(*state)) for state in states]
    return eqs


def mixed_equations():
    """Ordinary states among every way a solve can end: a refused polynomial,
    f as rounding noise (mass 1e75 and 1e45), an empty window, a scan that
    leaves the doubles (mass 1e160 with the oracle off), every radicand
    negative (mass 2e154) and the 113-double window."""
    narrow = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=-10.0 + 1e-13, tensor_h=1.0,
                         strict_domain=False)
    return [
        build_equation(ps_params(1.0), StateIndex(1, -1)),
        build_equation(ps_params(1e80), StateIndex(1, -1)),
        build_equation(ps_params(1.0, mass=1e75), StateIndex(1, -1)),
        build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT),
        build_equation(ps_params(1.0, mass=1e45), StateIndex(1, -1)),
        build_equation(ps_params(1.0, c_sym=-10.0), StateIndex(1, -1)),
        build_equation(ps_params(1.0, mass=1e160), StateIndex(1, -1)),
        build_equation(spin_params(1.0, mass=2e154), StateIndex(0, -2)),
        build_equation(narrow, StateIndex(1, -1)),
        build_equation(spin_params(1.0), StateIndex(0, -2)),
        build_equation(ps_params(1.0), StateIndex(1, 2)),
    ]


class TestBatch:
    """A batch (spectrum._solve_all) gives every equation exactly what
    solve_spectrum gives it: the result repr, or the error's type and text.
    Its scans gather f's constants into arrays where a slice spans
    equations, and array and scalar operands round alike, so this runs
    with numpy's SIMD kernels off too."""

    @pytest.mark.parametrize("oracle_check", [True, False])
    @pytest.mark.parametrize("which", ["pinned", "draws", "sweeps"])
    def test_equals_one_at_a_time(self, which, oracle_check, ref):
        if which == "pinned":
            eqs = pinned_equations(ref)
        elif which == "draws":
            rng = random.Random("batch")
            eqs = [build_equation(ModelParams(**c.params()), StateIndex(c.n, c.kappa), c.assembly)
                   for c in (draw_case(rng) for _ in range(300))]
        else:
            eqs = sweep_equations()
        opts = SolveOptions(oracle_check=oracle_check)
        assert batched(eqs, opts) == one_at_a_time(eqs, opts)

    @pytest.mark.parametrize("oracle_check", [True, False])
    @pytest.mark.parametrize("grid_points, margin", [(20001, None), (20001, 1e-30), (2001, None),
                                                     (4, 1e-30), (3, None)])
    def test_every_ending_in_one_batch(self, grid_points, margin, oracle_check):
        eqs = mixed_equations()
        opts = SolveOptions(grid_points=grid_points, margin=margin, oracle_check=oracle_check)
        want = one_at_a_time(eqs, opts)
        assert batched(eqs, opts) == want
        # the batch holds results and errors of every kind
        kinds = {text.split(":")[0].split("(")[0] for text in want}
        assert {"SpectrumResult", "DomainError", "NoPhysicalWindow"} <= kinds

    def test_errors_and_unbuilt_equations_pass_through(self):
        error = DomainError("not built")
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        out = spectrum._solve_all([error, eq, error, eq], OPTS)
        assert out[0] is error and out[2] is error
        assert repr(out[1]) == repr(out[3]) == repr(solve_spectrum(eq, OPTS))

    def test_slices_span_equations_and_runs_span_slices(self, monkeypatch):
        # the sweeps' open samples fill many slices, some holding several
        # equations; mass 1e45 opens every block, a run cut into pieces
        sizes, spanning = [], []
        f_arrays = spectrum._f_arrays

        def recording(terms, energies, *rest):
            sizes.append(energies.size)
            spanning.append(np.ndim(terms.width) == 1)
            return f_arrays(terms, energies, *rest)

        monkeypatch.setattr(spectrum, "_f_arrays", recording)
        eqs = sweep_equations() + [build_equation(ps_params(1.0, mass=1e45), StateIndex(1, -1))]
        results = spectrum._solve_all(eqs, SolveOptions(oracle_check=False))
        assert all(isinstance(r, spectrum.SpectrumResult) for r in results)
        assert max(sizes) <= spectrum.SCAN_SLICE and any(spanning) and len(sizes) < len(eqs)
        assert sum(sizes) > 20001  # the noise equation's run took several slices

    def test_workspace_is_bounded(self, ref, monkeypatch):
        # 16 equations at a time, their bound pass and one slice, hold about
        # 0.35 MiB; each equation and its result hold about 2.2 KiB more.
        # The benchmark's sweep (41 equations) peaked at 465 KiB, the
        # pseudospin table (32) at 428 KiB
        params = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0)
        doublet = [tuple(StateIndex(*s) for s in SWEEP_DOUBLETS[PSEUDOSPIN])]
        reference = ref.params(PSEUDOSPIN, 0.0)
        table = [build_equation(dataclasses.replace(reference, tensor_h=c.tensor_h), c.state)
                 for c in ref.select(PSEUDOSPIN)]
        for run in (lambda: h_sweep(params, doublet, SWEEP_H), lambda: spectrum._solve_all(table)):
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 640 * 1024, peak

        # and no bound pass or evaluation grows with the batch, every
        # equation scanned
        monkeypatch.setattr(spectrum, "_oracle_scan", lambda *args: None)
        blocks, samples = [], []
        f_bounds, f_arrays = spectrum._f_bounds, spectrum._f_arrays
        monkeypatch.setattr(spectrum, "_f_bounds",
                            lambda t, lo, hi: blocks.append(lo.size) or f_bounds(t, lo, hi))
        monkeypatch.setattr(spectrum, "_f_arrays",
                            lambda t, e, *r: samples.append(e.size) or f_arrays(t, e, *r))
        h_sweep(params, doublet, [0.01 * k for k in range(161)])
        assert max(blocks) <= spectrum.BATCH_EQUATIONS * spectrum.SCAN_BLOCKS
        assert max(samples) <= spectrum.SCAN_SLICE
        assert len(blocks) > 10


def np_roots_reference(poly):
    """The radicand crossings as np.roots found them, before the closed form."""
    coeffs = np.asarray(poly, dtype=float)[::-1]
    nz = np.nonzero(coeffs != 0.0)[0]
    if nz.size == 0 or coeffs.size - nz[0] < 2:
        return []
    return sorted(float(z.real) for z in np.roots(coeffs[nz[0]:])
                  if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)))


class TestClosedFormBoundaries:
    """The radicand crossings in closed form are np.roots' crossings."""

    def test_matches_np_roots(self, ref):
        eqs = pinned_equations(ref) + seeded_equations(200, seed="closed-form boundaries")
        degrees = set()
        for eq in eqs:
            for poly in spectrum._radicand_polys(eq.terms):
                want, got = np_roots_reference(poly), sorted(spectrum._real_roots(poly))
                assert len(got) == len(want), (eq, want, got)
                for w, g in zip(want, got):
                    assert abs(g - w) <= 4 * math.ulp(w), (eq, want, got)
                degrees.add(int(np.flatnonzero(poly)[-1]))
        assert degrees == {1, 2}

    def test_signed_zero_c_sym_gives_one_boundary_set(self):
        # at A = 4, V3 = 0, so Q8's linear coefficient is C_sym / alpha^2 alone;
        # the boundaries and the solve must not depend on the sign of that zero
        results = []
        for c_sym in (0.0, -0.0):
            params = ModelParams(mass=83.73510401973351, symmetry=PSEUDOSPIN, c_sym=c_sym,
                                 tensor_h=1.4887255224532048, alpha=0.567881453521075,
                                 a_shape=4.0, strict_domain=False)
            eq = build_equation(params, StateIndex(3, -1))
            opts = SolveOptions(grid_points=2001, oracle_check=False)
            results.append((spectrum._radicand_boundaries(eq.terms, *search_window(eq)),
                            repr(solve_spectrum(eq, opts))))
        assert results[0] == results[1]

    @pytest.mark.parametrize("poly, roots", [
        ([3.0, -1.5], [2.0]),  # linear, as Q9 always is
        ([0.0, -2.0, 1.0], [0.0, 2.0]),  # c = 0: the root at 0 is exact
        ([-8.0, 0.0, 2.0], [-2.0, 2.0]),  # b = 0
        ([2.0, -3.0, 1.0, 0.0], [1.0, 2.0]),  # a zero leading coefficient is dropped
        ([5.0, 0.0], []),  # constant
        ([1.0, 0.0, 1.0], []),  # a complex pair
    ])
    def test_hand_cases(self, poly, roots):
        got = sorted(spectrum._real_roots(np.array(poly)))
        assert got == roots
        assert [math.copysign(1.0, z) for z in got] == [math.copysign(1.0, z) for z in roots]
        assert np_roots_reference(np.array(poly)) == pytest.approx(roots, abs=1e-15)

    def test_double_root_whose_discriminant_rounds_negative(self):
        a, b = 1.0, -0.02
        c = math.nextafter(b * b / 4.0, 1.0)
        assert b * b - 4.0 * a * c < 0.0
        got = spectrum._real_roots(np.array([c, b, a]))
        assert got == [0.01, 0.01]
        assert np_roots_reference(np.array([c, b, a])) == pytest.approx(got, rel=1e-12)


def reference_spin(mass, state, **kw):
    params = ModelParams(mass=mass, symmetry=SPIN, **kw)
    return build_equation(params, state, ASSEMBLY_REFERENCE)


class TestEdgeClusters:
    """States whose roots cluster near a window edge, each of which made the
    long-double E-form oracle raise OracleMismatch: every root of f is
    oracle-confirmed, and every survivor is a root of f."""

    @pytest.mark.parametrize("eq", [
        reference_spin(26.82759853298316, StateIndex(0, -3), c_sym=-24.571165422508077,
                       tensor_h=2.804423525633683, alpha=1.6718217147505874,
                       a_shape=6.089991730997277),
        reference_spin(20.0, StateIndex(0, -1), c_sym=0.0, tensor_h=0.0, alpha=0.6,
                       a_shape=5.0),
        reference_spin(50.0, StateIndex(0, -1), c_sym=0.0, tensor_h=0.0, alpha=0.6,
                       a_shape=5.0),
        reference_spin(91.0154751060097, StateIndex(1, -4), c_sym=-51.82389226295651,
                       tensor_h=2.292311902451914, alpha=2.1098326392879683,
                       a_shape=7.841277433730604),
        reference_spin(97.3157805989763, StateIndex(0, -1), c_sym=8.559506076650422,
                       tensor_h=-0.5811063025682865, alpha=2.6755161375984136,
                       a_shape=4.114605757798798),
        reference_spin(98.90198012878312, StateIndex(3, -4), c_sym=-39.58133241365142,
                       tensor_h=-0.11799572086323806, alpha=2.4061369765873564,
                       a_shape=5.331664440796413),
    ] + [build_equation(ps_params(1.0, mass=mass), StateIndex(1, -1))
         for mass in (300.0, 500.0, 1e4, 1e6)]
      + [build_equation(spin_params(tensor_h, mass=mass), StateIndex(0, -2))
         for tensor_h, mass in ((1.0, 240.0), (1.0, 300.0), (1.0, 1e3), (0.0, 300.0),
                                (0.0, 1e3))],
        ids=["mass-26.8", "mass-20", "mass-50", "mass-91", "mass-97.3", "mass-98.9"]
        + [f"readme-mass-{m:g}" for m in (300, 500, 1e4, 1e6)]
        + [f"spin-H{h:g}-mass-{m:g}" for h, m in ((1, 240), (1, 300), (1, 1e3), (0, 300),
                                                  (0, 1e3))])
    def test_roots_are_oracle_confirmed(self, eq):
        res = solve_spectrum(eq, OPTS)
        assert res.roots and all(r.method == "oracle-confirmed" for r in res.roots)
        assert len(res.oracle.survivors) == len(res.roots)


class TestCrossCheckBranches:
    """The two cross-check branches of solve_spectrum that the default grid
    rarely reaches."""

    def test_oracle_root_the_scan_missed(self):
        # both roots (1.2451..., 6.6309...) fall in one cell of a 4-point grid
        params = ModelParams(mass=9.695646549768895, c_sym=7.255963151421806,
                             tensor_h=1.6933592857421633, alpha=1.9780664756666617,
                             a_shape=6.951612938471577)
        eq = build_equation(params, StateIndex(3, 2))
        with pytest.raises(OracleMismatch, match=r"oracle root 1\.2451136144435466 was not "
                                                 r"found by bisection; bisection roots: \[\]"):
            solve_spectrum(eq, SolveOptions(grid_points=4))
        assert [r.energy for r in solve_spectrum(eq, OPTS).roots] == pytest.approx(
            [1.2451136144, 6.6309472512], abs=1e-9)

    def test_bisection_root_the_oracle_missed(self, monkeypatch):
        # an oracle that loses the upper survivor of the README state: the scan
        # still brackets that root, and the solve ends there
        oracle = spectrum.quartic_oracle

        def lossy(*args, **kwargs):
            result = oracle(*args, **kwargs)
            return dataclasses.replace(result, survivors=result.survivors[:-1])

        monkeypatch.setattr(spectrum, "quartic_oracle", lossy)
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        with pytest.raises(OracleMismatch, match=r"^bisection root 4\.84976467749\d* has no oracle "
                                                 r"partner within 1e-09; oracle survivors: "
                                                 r"\(-4\.67275052258\d*,\)$"):
            solve_spectrum(eq)

    def test_exact_zeros_on_the_grid(self):
        # at mass 1e40 f is rounding noise: exactly 0 at many grid points, and
        # no double near the roots meets the oracle within 1e3 * bisect_tol
        eq = build_equation(ps_params(tensor_h=1.0, mass=1e40), StateIndex(1, -1))
        opts = SolveOptions(grid_points=2001)
        f = spectrum._f_arrays(eq.terms, np.linspace(*search_window(eq), 2001))
        assert np.count_nonzero(f == 0.0) > 0
        with pytest.raises(DomainError, match="bisect_tol=1e-12 is too small to match roots"):
            solve_spectrum(eq, opts)


class TestDegeneracy:
    def test_h_zero_doublet_is_bitwise_identical(self):
        eq_neg = build_equation(ps_params(), StateIndex(1, -1))
        eq_pos = build_equation(ps_params(), StateIndex(1, 2))
        assert eq_neg.q * (eq_neg.q - 1) == eq_pos.q * (eq_pos.q - 1)
        for energy in (-4.7, -2.0, 1.5, 4.2):
            assert normal_form(eq_neg, energy) == normal_form(eq_pos, energy)
        assert quartic_oracle(eq_neg).coefficients == quartic_oracle(eq_pos).coefficients

    def test_all_bundled_h_zero_doublets_degenerate(self, ref):
        for symmetry, partner in ((PSEUDOSPIN, lambda k: 1 - k), (SPIN, lambda k: -k - 1)):
            params = ref.params(symmetry, 0.0)
            cells = [c for c in ref.select(symmetry) if c.tensor_h == 0.0 and c.state.kappa < 0]
            assert cells
            for cell in cells:
                mate = StateIndex(cell.state.n, partner(cell.state.kappa))
                res_a = solve_spectrum(build_equation(params, cell.state), OPTS)
                res_b = solve_spectrum(build_equation(params, mate), OPTS)
                assert abs(negative_root(res_a) - negative_root(res_b)) < 1e-10
                # bit for bit, which lets splitting_report solve the baseline once
                assert repr(res_a.roots) == repr(res_b.roots)

    @pytest.mark.parametrize("tensor_h", [0.0, -0.0])
    def test_h_zero_members_share_terms_and_u(self, tensor_h):
        # what lets _doublet_energies solve the H = 0 pair once: every pair
        # check_doublet admits builds one equation, bit for bit
        rng = random.Random("doublet identity")
        kinds = ((PSEUDOSPIN, ASSEMBLY_STRICT), (SPIN, ASSEMBLY_REFERENCE), (SPIN, ASSEMBLY_STRICT))
        states = [StateIndex(n, k) for n in range(6) for k in range(-6, 7) if k]
        pairs = 0
        for symmetry, assembly in kinds:
            for _ in range(3):
                mass = rng.uniform(1.0, 100.0)
                params = ModelParams(
                    mass=mass, symmetry=symmetry, c_sym=rng.uniform(-mass, mass),
                    tensor_h=tensor_h, alpha=rng.uniform(0.55, 3.0),
                    a_shape=rng.uniform(4.05, 7.95),
                )
                for neg in states:
                    for pos in states:
                        try:
                            check_doublet(params, neg, pos)
                        except DomainError:
                            continue
                        a = build_equation(params, neg, assembly)
                        b = build_equation(params, pos, assembly)
                        assert repr(a.terms) == repr(b.terms)
                        assert (quartic_oracle(a).coefficients
                                == quartic_oracle(b).coefficients)
                        pairs += 1
        assert pairs == 3 * 3 * 6 * 5  # n <= 5 and five pairs with |kappa| <= 6 per n


class TestOracle:
    def test_degree_and_partition(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        orc = quartic_oracle(eq, window=search_window(eq))
        assert orc.degree == 6
        assert len(orc.all_roots) == 6
        assert len(orc.survivors) + len(orc.spurious) == 6
        assert len(orc.survivors) == 2

    def test_survivors_satisfy_back_substitution(self):
        eq = build_equation(ps_params(1.0), StateIndex(2, -1))
        orc = quartic_oracle(eq, window=search_window(eq))
        for e in orc.survivors:
            f = quantization_function(eq, e)
            assert abs(f) < 1e-6 * max(1.0, 4.0)

    def test_no_bound_state_flags_everything_spurious(self):
        eq = build_equation(ps_params(mass=0.8), StateIndex(1, -1))
        orc = quartic_oracle(eq, window=search_window(eq))
        assert orc.survivors == ()
        assert len(orc.spurious) == 6

    def test_matches_bisection_tightly(self):
        eq = build_equation(ps_params(1.0), StateIndex(0, -1))
        res = solve_spectrum(eq, OPTS)
        orc = res.oracle
        for r in res.roots:
            assert min(abs(r.energy - s) for s in orc.survivors) < 1e3 * OPTS.bisect_tol

    # a leading coefficient below 1e-12 of the largest one used to be trimmed
    # away, which lost a root; the draws are from a log-uniform mass in [30, 100]
    @pytest.mark.parametrize("params, state, assembly, energies", [
        (ModelParams(mass=50.0, alpha=0.6, a_shape=5.0), StateIndex(10, -1), None,
         [-49.176063817251524, 49.478490222930624]),
        (ModelParams(mass=79.3229607894232, symmetry=PSEUDOSPIN, c_sym=68.39166962703563,
                     tensor_h=0.3368001547380963, alpha=1.6452965494941099,
                     a_shape=7.1481200458639815),
         StateIndex(4, -3), None, [-78.13972533212558, 147.04980340584382]),
        (ModelParams(mass=97.39461976155704, symmetry=SPIN, c_sym=-64.21226646383253,
                     tensor_h=0.7974714145985349, alpha=1.2315171906277578,
                     a_shape=4.316456183532544),
         StateIndex(5, -2), ASSEMBLY_REFERENCE, [-161.39670891794108]),
        (ModelParams(mass=73.55234787819862, symmetry=SPIN, c_sym=-2.288025679579522,
                     tensor_h=-0.5899001758987694, alpha=1.0162686130145795,
                     a_shape=6.546822225991985),
         StateIndex(5, -3), ASSEMBLY_STRICT, [-75.35119785263113]),
    ])
    def test_small_leading_coefficient_is_kept(self, params, state, assembly, energies):
        res = solve_spectrum(build_equation(params, state, assembly), OPTS)
        assert [r.energy for r in res.roots] == energies
        assert all(r.method == "oracle-confirmed" for r in res.roots)
        assert res.oracle.degree == 6

    def test_root_with_negative_s_is_spurious(self):
        # a root of U with u >= 0 and S < 0 inside the window solves
        # (W + u + v)^2 = 4 A, f's decaying branch, where f itself is -40.7
        params = ModelParams(mass=5.432062492492053, symmetry=SPIN, c_sym=-4.1599443525046835,
                             tensor_h=-1.8494581524340783, alpha=1.0714623199855675,
                             a_shape=6.711810612082385)
        eq = build_equation(params, StateIndex(1, -2), ASSEMBLY_REFERENCE)
        res = solve_spectrum(eq, OPTS)
        (decaying,) = [z.real for z in res.oracle.spurious
                       if z.imag == 0.0 and abs(z.real - 1.858838416) < 1e-9]
        f, q8, q9, four_a = spectrum._f_point(eq.terms, decaying)
        assert f == pytest.approx(-40.732, abs=1e-3)
        assert (3.0 + math.sqrt(q9) + math.sqrt(q8)) ** 2 == pytest.approx(four_a, rel=1e-12)
        assert all(abs(r.energy - decaying) > 1.0 for r in res.roots)

    def test_tie_rule_drops_a_candidate_outside_the_physical_window(self, monkeypatch):
        # the tie rule: a root with u >= 0 and S >= 0 at which f is undefined
        # is spurious.  Here, with no window, one sits at E = 42.3388, past
        # the physical window's upper edge 42.2806, where f is a WindowViolation
        params = ModelParams(mass=42.28060815358082, symmetry=SPIN, c_sym=-0.2683573667629267,
                             tensor_h=1.5730702278063946, alpha=2.6694224562369655,
                             a_shape=4.111545652280617)
        eq = build_equation(params, StateIndex(2, 2), ASSEMBLY_STRICT)
        asked = []

        def recording(eq, energy):
            asked.append(energy)
            return quantization_function(eq, energy)

        monkeypatch.setattr(spectrum, "quantization_function", recording)
        orc = quartic_oracle(eq)
        (outside,) = [e for e in asked if e not in orc.survivors]
        assert outside == pytest.approx(42.33881249759, abs=1e-9)
        assert complex(outside) in orc.spurious
        assert sorted(asked) == sorted(orc.survivors + (outside,))  # one call per candidate
        with pytest.raises(WindowViolation):
            quantization_function(eq, outside)

    def test_tie_rule_drops_a_candidate_at_a_negative_radicand(self, monkeypatch):
        # no seeded state has a candidate where a radicand is negative past the
        # clamp, so f is made undefined at the README state's positive root
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))

        def undefined_above_zero(eq, energy):
            if energy > 0.0:
                raise NegativeRadicand("c8", -1e-9)
            return quantization_function(eq, energy)

        monkeypatch.setattr(spectrum, "quantization_function", undefined_above_zero)
        orc = quartic_oracle(eq, window=search_window(eq))
        assert orc.survivors == (-4.672750522580427,)
        assert complex(4.849764677491085) in orc.spurious

    def test_root_in_radicand_sliver_is_found(self):
        # a positive root sits ~1e-4 below the 4c8 = 0 crossing, far inside
        # one uniform grid step; the boundary-packed samples must catch it
        eq = build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)
        res = solve_spectrum(eq, OPTS)
        hit = [r for r in res.roots if r.sign_class == POSITIVE]
        assert len(hit) == 1
        assert hit[0].energy == pytest.approx(4.934149818966, abs=1e-9)
        assert hit[0].method == "oracle-confirmed"


def companion(coeffs):
    """np.roots's companion matrix of ``coeffs``, highest degree first, nonzero
    leading and trailing coefficients, built as np.roots builds it."""
    p = np.array(coeffs, dtype=float)
    matrix = np.diag(np.ones(p.size - 2), -1)
    matrix[0, :] = -p[1:] / p[0]
    return matrix


def bits(values):
    """The bits of complex values, real and imaginary parts."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


# at alpha = 1e50, H = 1000, U's coefficients are finite but its leading one,
# about 1e-249, is small enough that -c_k / c_0 overflows
COMPANION_OVERFLOW = (ModelParams(mass=5.0, symmetry=SPIN, tensor_h=1000.0, alpha=1e50),
                      StateIndex(1, -1))
COMPANION_ERROR = (r"^mass = 5\.0, c_sym = 0\.0, tensor_h = 1000\.0, alpha = 1e\+50, "
                   r"c0 = 0\.08333333333333333 put an entry of the oracle's companion matrix "
                   r"at -inf, past the doubles$")


class TestCompanion:
    """sextic._companion_roots calls the LAPACK gufunc behind np.linalg.eigvals
    itself; its roots are eigvals' own, bit for bit, alone and stacked."""

    def test_roots_are_eigvals_bit_for_bit(self, ref):
        rng = random.Random("companion")
        eqs = pinned_equations(ref) + [
            build_equation(ModelParams(**c.params()), StateIndex(c.n, c.kappa), c.assembly)
            for c in (draw_case(rng) for _ in range(300))]
        polys = [spectrum._u_polynomial(eq.terms)[::-1] for eq in eqs]
        assert all(p[-1] != 0.0 for p in polys)
        stacked = np.linalg.eigvals(np.array([companion(p) for p in polys]))
        got = spectrum._companion_roots(polys)
        assert all(isinstance(z, complex) for roots in got for z in roots)
        assert [bits(roots) for roots in got] == [bits(row) for row in stacked]
        for p, roots in zip(polys[:40], got):
            alone = spectrum._companion_roots([p])
            assert bits(alone[0]) == bits(np.linalg.eigvals(companion(p))) == bits(roots)

    def test_trailing_zeros_and_degrees_as_np_roots_takes_them(self):
        # np.roots drops trailing zeros and appends a root 0 for each; the
        # polynomials of one degree share a stack
        polys = [[2.0, -3.0, 1.0, 0.0, 0.0], [1.0, 0.0, -2.0, 5.0, 0.0],
                 [1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.5, -2.0, 0.0]]
        got = spectrum._companion_roots(polys)
        assert [bits(roots) for roots in got] == [bits(np.roots(p)) for p in polys]

    def test_an_entry_past_the_doubles_has_no_roots(self):
        assert spectrum._companion_roots([[1e-300, 1e300, 0.0, 1.0], [1.0, -3.0, 2.0, 0.0]]) == [
            None, [2 + 0j, 1 + 0j, 0j]]

    def test_oracle_and_solve_name_the_overflow(self):
        eq = build_equation(*COMPANION_OVERFLOW)
        coeffs = spectrum._u_polynomial(eq.terms)
        assert all(math.isfinite(c) for c in coeffs)
        with pytest.raises(DomainError, match=COMPANION_ERROR):
            quartic_oracle(eq)
        with pytest.raises(DomainError, match=COMPANION_ERROR):
            solve_spectrum(eq)

    def test_the_rest_of_a_batch_keeps_its_results(self):
        good = build_equation(ps_params(1.0), StateIndex(1, -1))
        other = build_equation(spin_params(1.0), StateIndex(0, -2))
        bad = build_equation(*COMPANION_OVERFLOW)
        first, error, last = spectrum._solve_all([good, bad, other])
        assert repr(first) == repr(solve_spectrum(good))
        assert repr(last) == repr(solve_spectrum(other))
        assert isinstance(error, DomainError) and re.match(COMPANION_ERROR, str(error))


class TestDomainContract:
    """Every strict-domain state gets a result or a SolverError, and no
    warning: a first slice of the domain contract, on a grid of extreme
    masses, screening rates and tensor strengths, solved one at a time and
    in one batch."""

    MASSES = (1e-300, 1e-20, 5.0, 1e50, 1e150, 1e300)
    ALPHAS = (0.51, 3.0, 1e10, 1e50, 1e150, 1e300)
    TENSORS = (-1e300, -1e50, -1e3, 0.0, 1e3, 1e50, 1e300)

    def test_each_state_returns_or_raises_a_solver_error(self):
        eqs, unbuilt = [], 0
        for symmetry, mass, alpha, h in itertools.product(
                (PSEUDOSPIN, SPIN), self.MASSES, self.ALPHAS, self.TENSORS):
            params = ModelParams(mass=mass, symmetry=symmetry, tensor_h=h, alpha=alpha)
            for state in (StateIndex(1, -1), StateIndex(0, 2)):
                try:
                    eqs.append(build_equation(params, state))
                except SolverError:
                    unbuilt += 1
        # recorded, not raised, so that an error other than a SolverError
        # surfaces as itself
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            alone = one_at_a_time(eqs, OPTS)
            together = batched(eqs, OPTS)
        assert warned == [] and together == alone
        # the grid reaches results, equations refused at construction, and
        # oracles refused for their coefficients and for their companion matrix
        assert sum(text.startswith("SpectrumResult(") for text in alone) > 100 and unbuilt
        assert any("coefficient of the oracle's polynomial" in text for text in alone)
        assert any("oracle's companion matrix" in text for text in alone)

    @pytest.mark.xfail(strict=True, raises=OracleMismatch,
                       reason="ROADMAP items 2 and 9: the oracle keeps no survivor where "
                              "bisection finds a root at alpha >= 1e50, A just above 4")
    def test_strict_spin_root_at_huge_alpha_has_an_oracle_partner(self):
        # dirac-nu solve --symmetry spin --assembly strict --alpha 1e50
        #   --tensor-h -1 --n 0 --kappa -1 --a-shape 4.0000001
        params = ModelParams(mass=5.0, symmetry=SPIN, tensor_h=-1.0, alpha=1e50,
                             a_shape=4.0000001)
        eq = build_equation(params, StateIndex(0, -1), ASSEMBLY_STRICT)
        assert solve_spectrum(eq, OPTS).roots


def pseudospin_core(eq):
    """A spin equation's pseudospin-form twin at (-C_sym, -V): the same q, n
    and coupling scale, evaluated with sigma = +1 by the module's own code,
    its constants and window derived as an equation derives its own."""
    c = eq.coeffs
    core = types.SimpleNamespace(
        params=dataclasses.replace(eq.params, symmetry=PSEUDOSPIN, c_sym=-eq.params.c_sym),
        state=eq.state, q=eq.q, scale=eq.scale, mirror=1.0,
        coeffs=PotentialCoeffs(-c.v1, -c.v2, -c.v3),
    )
    core.physical_window = spectrum._physical_window(core)
    core.terms = spectrum._f_terms(core)
    return core


class TestMirror:
    """The spin limit is the pseudospin core at (-E, -C_sym, -V), bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        mass=st.floats(min_value=1.0, max_value=100.0),
        c_frac=st.floats(min_value=-0.99, max_value=0.99),
        tensor_h=st.floats(min_value=-3.0, max_value=3.0),
        alpha=st.floats(min_value=0.5, max_value=3.0, exclude_min=True),
        a_shape=st.floats(min_value=4.0, max_value=8.0, exclude_min=True, exclude_max=True),
        n=st.integers(min_value=0, max_value=5),
        kappa=st.integers(min_value=-6, max_value=6).filter(bool),
        assembly=st.sampled_from((ASSEMBLY_REFERENCE, ASSEMBLY_STRICT)),
    )
    def test_spin_is_the_mirrored_pseudospin_core(
        self, mass, c_frac, tensor_h, alpha, a_shape, n, kappa, assembly
    ):
        params = ModelParams(mass=mass, symmetry=SPIN, c_sym=c_frac * mass,
                             tensor_h=tensor_h, alpha=alpha, a_shape=a_shape)
        eq = build_equation(params, StateIndex(n, kappa), assembly)
        core = pseudospin_core(eq)

        lo, hi = search_window(eq)
        core_lo, core_hi = search_window(core)
        assert (lo, hi) == (-core_hi, -core_lo)

        grid = np.linspace(lo, hi, 2001)
        terms, core_terms = eq.terms, core.terms
        assert same_bits(spectrum._f_arrays(terms, grid),
                         spectrum._f_arrays(core_terms, -grid))
        for e in grid[::97].tolist():
            assert same_bits(spectrum._f_point(terms, e), spectrum._f_point(core_terms, -e))
            assert normal_form(eq, e) == normal_form(core, -e)

        # u does not see sigma: one U, bit for bit, whose roots x = sigma E mirror
        oracle, core_oracle = quartic_oracle(eq), quartic_oracle(core)
        assert same_bits(oracle.coefficients, core_oracle.coefficients)
        assert oracle.all_roots == tuple(-z for z in core_oracle.all_roots)
        assert oracle.survivors == tuple(-e for e in reversed(core_oracle.survivors))


class TestMapping:
    def test_shifts_quantum_number_by_one(self):
        eq = build_equation(ps_params(1.0, c_sym=0.25), StateIndex(1, -1))
        mapped = spin_from_pseudospin_mapping(eq)
        assert mapped.params.symmetry == SPIN
        assert mapped.params.c_sym == -0.25
        assert mapped.q == eq.q + 1.0
        assert mapped.state == eq.state

    def test_wrong_limit_rejected(self):
        with pytest.raises(DomainError):
            spin_from_pseudospin_mapping(build_equation(spin_params(), StateIndex(0, -2)))

    @pytest.mark.parametrize("assembly", [ASSEMBLY_REFERENCE, ASSEMBLY_STRICT])
    def test_mapped_equals_direct(self, ref, assembly):
        for cell in ref.select(SPIN):
            direct = solve_spectrum(
                build_equation(ref.params(SPIN, cell.tensor_h), cell.state, assembly), OPTS
            )
            source = build_equation(ref.params(PSEUDOSPIN, cell.tensor_h), cell.state)
            mapped = solve_spectrum(spin_from_pseudospin_mapping(source, assembly), OPTS)
            ed = [r.energy for r in direct.roots]
            em = [r.energy for r in mapped.roots]
            assert len(ed) == len(em)
            assert all(abs(a - b) < 1e-8 for a, b in zip(ed, em))

    def test_strict_assembly_is_the_literal_substitution(self):
        # f_spin_strict(E; n, kappa, H, C) must equal the pseudospin assembly
        # evaluated at (-E, kappa + 1, -C) with the potential negated -- the
        # full substitution set, rebuilt here from scratch
        alpha, a_shape, mass, c0 = 0.6, 5.0, 5.0, 1.0 / 12.0
        v1 = alpha**2 / 4
        v2 = (a_shape - 8) * alpha**2 / 4
        v3 = (4 - a_shape) * alpha**2 / 4
        for n, kappa, tensor_h, c_sym in [(0, -2, 1.0, 0.3), (1, 2, 0.5, 0.0), (2, -3, 0.0, -0.2)]:
            eq = build_equation(
                ModelParams(mass=mass, symmetry=SPIN, c_sym=c_sym, tensor_h=tensor_h),
                StateIndex(n, kappa),
                ASSEMBLY_STRICT,
            )
            q = kappa + 1 + tensor_h
            used = 0
            for energy in np.linspace(-4.5, 4.5, 41):
                g = (-energy) - mass - (-c_sym)
                b2 = (mass - energy) * (mass + energy - c_sym)
                w = g / (4 * alpha**2)
                b = b2 / (4 * alpha**2)
                big_a = q * (q - 1) * c0 + w * (-v1) + b
                big_c = q * (q - 1) * c0 + w * (-v3) + b
                c9 = (q - 0.5) ** 2 + w * (-(v1 + v2 + v3))
                if big_c < 0 or c9 < 0:
                    with pytest.raises(NegativeRadicand):
                        quantization_function(eq, float(energy))
                    continue
                expect = (2 * n + 1 + 2 * np.sqrt(c9) - 2 * np.sqrt(big_c)) ** 2 - 4 * big_a
                assert quantization_function(eq, float(energy)) == pytest.approx(
                    expect, abs=1e-12 * max(1.0, abs(expect))
                )
                used += 1
            assert used >= 5

    def test_assemblies_genuinely_differ(self, ref):
        gaps = []
        for cell in ref.select(SPIN):
            p = ref.params(SPIN, cell.tensor_h)
            e_ref = negative_root(solve_spectrum(build_equation(p, cell.state, ASSEMBLY_REFERENCE), OPTS))
            e_str = negative_root(solve_spectrum(build_equation(p, cell.state, ASSEMBLY_STRICT), OPTS))
            gaps.append(abs(e_ref - e_str))
        assert max(gaps) >= 1e-4


class TestSplitting:
    def test_h_zero_is_exactly_degenerate(self):
        rep = splitting_report(ps_params(0.0), StateIndex(1, -1), StateIndex(1, 2), OPTS)
        assert rep.delta_e == 0.0
        assert rep.direction_neg == 0 and rep.direction_pos == 0

    def test_tensor_splits_in_opposite_directions(self):
        rep = splitting_report(ps_params(1.0), StateIndex(1, -1), StateIndex(1, 2), OPTS)
        assert rep.label_neg == "1s1/2" and rep.label_pos == "0d3/2"
        assert rep.energy_neg == pytest.approx(-4.672750523, abs=1e-6)
        assert rep.energy_pos == pytest.approx(-4.352818702, abs=1e-6)
        assert rep.baseline_neg == pytest.approx(-4.556531257, abs=1e-6)
        assert rep.delta_e == pytest.approx(0.319931821, abs=2e-6)
        assert rep.direction_neg == -1 and rep.direction_pos == 1

    def test_spin_doublet_splitting(self):
        rep = splitting_report(spin_params(1.0), StateIndex(0, -2), StateIndex(0, 1), OPTS)
        assert rep.energy_neg == pytest.approx(-4.964565157, abs=1e-6)
        assert rep.energy_pos == pytest.approx(-4.744442703, abs=1e-6)

    def test_doublet_validation(self):
        with pytest.raises(DomainError):
            check_doublet(ps_params(), StateIndex(1, 2), StateIndex(1, -1))
        with pytest.raises(DomainError):
            check_doublet(ps_params(), StateIndex(1, -1), StateIndex(1, 3))
        with pytest.raises(DomainError):
            check_doublet(spin_params(), StateIndex(0, -2), StateIndex(0, 2))
        with pytest.raises(DomainError, match="share n"):
            check_doublet(spin_params(), StateIndex(0, -2), StateIndex(1, 1))
        check_doublet(spin_params(), StateIndex(0, -2), StateIndex(0, 1))

    def test_splitting_rejects_members_of_different_n(self):
        # 1s1/2 and 1d3/2 share a pseudo-orbital number but not n, so their
        # H = 0 levels differ (-4.5565 and -4.2357) and there is no splitting
        with pytest.raises(DomainError, match=r"n=1, kappa=-1.*n=2, kappa=2"):
            splitting_report(ps_params(1.0), StateIndex(1, -1), StateIndex(2, 2), OPTS)

    @pytest.mark.parametrize("symmetry, neg, pos", [
        (PSEUDOSPIN, StateIndex(1, -1), StateIndex(1, 2)),
        (SPIN, StateIndex(0, -2), StateIndex(0, 1)),
    ])
    def test_baseline_solved_once(self, symmetry, neg, pos, monkeypatch):
        # both rows' equations go to one batch, the baseline pair as one equation
        solved = []
        solve_all = spectrum._solve_all

        def counting(eqs, opts=OPTS):
            solved.append([(eq.state, eq.params.tensor_h) for eq in eqs])
            return solve_all(eqs, opts)

        monkeypatch.setattr(spectrum, "_solve_all", counting)
        params = ModelParams(mass=5.0, symmetry=symmetry, c_sym=0.0, tensor_h=1.0)
        rep = splitting_report(params, neg, pos, OPTS)
        assert solved == [[(neg, 1.0), (pos, 1.0), (neg, 0.0)]]
        assert rep.baseline_neg == rep.baseline_pos

        solved.clear()
        rep = splitting_report(dataclasses.replace(params, tensor_h=0.0), neg, pos, OPTS)
        assert len(solved) == 1 and len(solved[0]) <= 2
        assert {state for state, _ in solved[0]} == {neg}
        assert rep.energy_neg == rep.energy_pos == rep.baseline_neg

    def test_negative_root_raises_when_absent(self):
        res = solve_spectrum(build_equation(ps_params(mass=0.8), StateIndex(1, -1)), OPTS)
        with pytest.raises(NoRootFound):
            negative_root(res)
