import dataclasses
import hashlib
import itertools
import math
import random
import sys
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from dirac_nu.errors import (
    DomainError,
    NegativeRadicand,
    NoPhysicalWindow,
    NoRootFound,
    OracleMismatch,
    WindowViolation,
)
from dirac_nu import spectrum
from dirac_nu.model import PSEUDOSPIN, SPIN, ModelParams, PotentialCoeffs, StateIndex
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
from inputs import draw_case  # noqa: E402

OPTS = SolveOptions()


def ps_params(tensor_h=0.0, c_sym=0.0, mass=5.0):
    return ModelParams(mass=mass, symmetry=PSEUDOSPIN, c_sym=c_sym, tensor_h=tensor_h)


def spin_params(tensor_h=0.0, c_sym=0.0, mass=5.0):
    return ModelParams(mass=mass, symmetry=SPIN, c_sym=c_sym, tensor_h=tensor_h)


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
        with pytest.raises(NoPhysicalWindow):
            search_window(build_equation(ps_params(c_sym=-10.0), StateIndex(1, -1)))

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


def seeded_equations(count, seed="scalar-twin"):
    """Strict-domain states cycling through both limits and both spin assemblies."""
    rng = random.Random(seed)
    kinds = ((PSEUDOSPIN, ASSEMBLY_STRICT), (SPIN, ASSEMBLY_REFERENCE), (SPIN, ASSEMBLY_STRICT))
    out = []
    for i in range(count):
        symmetry, assembly = kinds[i % 3]
        mass = rng.uniform(1.0, 30.0)
        params = ModelParams(
            mass=mass, symmetry=symmetry, c_sym=rng.uniform(-mass, mass),
            tensor_h=rng.uniform(-3.0, 3.0), alpha=rng.uniform(0.55, 3.0),
            a_shape=rng.uniform(4.05, 7.95),
        )
        kappa = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        out.append(build_equation(params, StateIndex(rng.randint(0, 5), kappa), assembly))
    return out


def solve_grid(eq, monkeypatch, opts=SolveOptions(oracle_check=False)):
    """The energies solve_spectrum scans, boundary packing included."""
    seen = []
    scan = spectrum._f_arrays

    def recording(terms, energies, *rest):
        seen.append(energies)
        return scan(terms, energies, *rest)

    monkeypatch.setattr(spectrum, "_f_arrays", recording)
    solve_spectrum(eq, opts)
    monkeypatch.setattr(spectrum, "_f_arrays", scan)
    (grid,) = seen
    return grid


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


class TestScalarTwin:
    """The scalar f used by bisection must reproduce the vectorized scan exactly."""

    def test_bitwise_equal_on_solver_grids(self, ref, monkeypatch):
        equations = [build_equation(ref.params(c.symmetry, c.tensor_h), c.state)
                     for c in ref.cells]
        equations += seeded_equations(24)
        nan_points = 0
        for eq in equations:
            grid = solve_grid(eq, monkeypatch)
            terms = spectrum._f_terms(eq)
            f = spectrum._f_arrays(terms, grid)
            points = [spectrum._f_point(terms, e)[0] for e in grid.tolist()]
            assert same_bits(points, f), eq
            nan_points += int(np.count_nonzero(np.isnan(f)))
        assert nan_points > 0  # the masked (negative radicand) points are covered

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
    """Whole results, every root and every OracleResult field included, pinned
    before the oracle stopped using numpy.polynomial and np.polyval."""

    SOLVE = "ed7aed6020e8dea09bdcdad60a70e863bd145a7173d4ea6f10fbbd1d136c933c"
    ORACLE = "20a71e420f4c95f930b8b3556d73faddf545b42adb0dbd6524cc145b3c8ac8d2"

    def test_solve_spectrum_results(self, ref):
        eqs = pinned_equations(ref)
        assert len(eqs) == 97
        assert repr_digest(solve_spectrum(eq) for eq in eqs) == self.SOLVE

    def test_oracle_without_window(self, ref):
        assert repr_digest(quartic_oracle(eq) for eq in pinned_equations(ref)) == self.ORACLE


def same_series(a, b):
    """Equal length, dtype, values and zero signs."""
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def polynomial_sextic(eq):
    """The eliminated polynomial as numpy.polynomial builds it from the pieces,
    in quartic_oracle's docstring order: the reference for _sextic."""
    q9, q8, rr = eq._pieces
    w = np.longdouble(2 * eq.state.n + 1)
    w2 = np.array([w * w])
    s1 = npoly.polyadd(npoly.polyadd(w2, q9), npoly.polysub(q8, rr))
    bracket = npoly.polyadd(
        npoly.polysub(npoly.polymul(s1, s1), 4.0 * npoly.polymul(q9, q8)),
        npoly.polysub(4.0 * w * w * q9, 4.0 * w * w * q8),
    )
    t = npoly.polysub(2.0 * q8, s1)
    rhs_sq = npoly.polymul(q9, npoly.polymul(t, t))
    return npoly.polysub(npoly.polymul(bracket, bracket), 16.0 * w * w * rhs_sq)


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


class TestSextic:
    """The fixed-length sextic build is numpy.polynomial's build, bit for bit."""

    def test_matches_numpy_polynomial(self, ref):
        eqs = (pinned_equations(ref) + log_mass_equations(1200, "sextic reference")
               + signed_zero_equations())
        for eq in eqs:
            assert same_series(spectrum._sextic(eq), polynomial_sextic(eq)), eq

    def test_pieces_have_the_fixed_layout(self, ref):
        for eq in pinned_equations(ref):
            q9, q8, rr = eq._pieces
            assert all(p.dtype == np.longdouble and p.shape == (3,) for p in (q9, q8, rr))
            assert q9[2] == 0.0 and q8[2] == rr[2] != 0.0


class TestScanAndCache:
    """The in-place scan leaves its input alone and the pieces cache is per equation."""

    def test_f_arrays_reads_its_input_only(self, monkeypatch):
        equations = [build_equation(ps_params(1.0), StateIndex(1, -1)),
                     build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)]
        equations += seeded_equations(6, seed="in-place scan")
        for eq in equations:
            grid = solve_grid(eq, monkeypatch)
            before = grid.tobytes()
            grid.flags.writeable = False
            f = spectrum._f_arrays(spectrum._f_terms(eq), grid)
            assert grid.tobytes() == before
            assert f.shape == grid.shape and not np.shares_memory(f, grid)

    def test_grid_merge_in_a_window_a_few_ulps_wide(self, monkeypatch):
        # the window holds 113 doubles, so linspace repeats samples; the packed
        # grid must still be the sorted unique samples, as np.unique made it
        params = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=-10.0 + 1e-13,
                             tensor_h=1.0, strict_domain=False)
        eq = build_equation(params, StateIndex(1, -1))
        opts = SolveOptions(margin=1e-30, oracle_check=False)
        assert spectrum._radicand_boundaries(eq, *search_window(eq, opts.margin))
        grid = solve_grid(eq, monkeypatch, opts)
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

    def test_pieces_built_once_per_equation(self, monkeypatch):
        built = []
        pieces = spectrum._poly_pieces

        def counting(eq):
            built.append(eq)
            return pieces(eq)

        monkeypatch.setattr(spectrum, "_poly_pieces", counting)
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        solve_spectrum(eq, OPTS)
        solve_spectrum(eq, OPTS)
        quartic_oracle(eq)
        assert built == [eq]
        assert not any(p.flags.writeable for p in eq._pieces)

    def test_replaced_params_do_not_see_the_old_cache(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        old = quartic_oracle(eq)
        moved = build_equation(dataclasses.replace(eq.params, tensor_h=0.5), eq.state)
        fresh = build_equation(ps_params(0.5), StateIndex(1, -1))
        assert moved._pieces is not eq._pieces
        assert repr(quartic_oracle(moved)) == repr(quartic_oracle(fresh)) != repr(old)
        assert repr(solve_spectrum(moved, OPTS)) == repr(solve_spectrum(fresh, OPTS))
        other = dataclasses.replace(eq, state=StateIndex(2, -1))
        assert repr(quartic_oracle(other)) == repr(
            quartic_oracle(build_equation(ps_params(1.0), StateIndex(2, -1))))


class TestScanWorkspace:
    """The scan runs in a block held per thread, so warm solves allocate no
    grid-sized buffers and concurrent solves do not share one."""

    def test_warm_solve_holds_no_grid_sized_temporaries(self):
        eq = build_equation(ps_params(1.0), StateIndex(1, -1))
        solve_spectrum(eq, OPTS)
        tracemalloc.start()
        try:
            solve_spectrum(eq, OPTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid itself is one such buffer; allocating the scan's buffers
        # afresh took the peak to about 5.3 of them
        assert peak < 2 * OPTS.grid_points * 8

    def test_concurrent_solves_reproduce_the_pinned_results(self, ref):
        eqs = pinned_equations(ref)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve_spectrum, eqs))
        assert repr_digest(results) == TestPinnedResults.SOLVE

    def test_f_arrays_without_out_returns_fresh_memory(self):
        # TestMirror compares two such calls: a shared buffer would make it vacuous
        eq = build_equation(spin_params(1.0), StateIndex(0, -2))
        grid = np.linspace(*search_window(eq), 2001)
        terms = spectrum._f_terms(eq)
        first, second = spectrum._f_arrays(terms, grid), spectrum._f_arrays(terms, grid)
        assert not np.shares_memory(first, second)
        assert same_bits(first, second)

    def test_rows_are_held_per_thread_up_to_the_cap(self):
        held = spectrum._scan_rows(2001)
        assert np.shares_memory(held, spectrum._scan_rows(1001))
        grown = spectrum._scan_rows(4001)
        assert grown.shape == (4, 4001) and np.shares_memory(grown, spectrum._scan_rows(2001))
        other = []
        thread = threading.Thread(target=lambda: other.append(spectrum._scan_rows(2001)))
        thread.start()
        thread.join()
        assert not np.shares_memory(other[0], spectrum._scan_rows(2001))
        big = spectrum.SCAN_WORKSPACE_MAX_POINTS + 1
        assert not np.shares_memory(spectrum._scan_rows(big), spectrum._scan_rows(big))
        assert np.shares_memory(grown, spectrum._scan_rows(4001))


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
            for poly in eq._pieces[:2]:
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
            results.append((spectrum._radicand_boundaries(eq, *search_window(eq)),
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


class TestKnownOracleBreaches:
    """Spin/reference states whose roots cluster near E = -M, where the
    long-double oracle misses them (ROADMAP item 2); the exact oracle flips
    these."""

    @pytest.mark.xfail(strict=True, raises=OracleMismatch,
                       reason="ROADMAP item 2: long-double oracle near E = -M")
    @pytest.mark.parametrize("eq", [
        reference_spin(26.82759853298316, StateIndex(0, -3), c_sym=-24.571165422508077,
                       tensor_h=2.804423525633683, alpha=1.6718217147505874,
                       a_shape=6.089991730997277),
        reference_spin(20.0, StateIndex(0, -1), c_sym=0.0, tensor_h=0.0, alpha=0.6,
                       a_shape=5.0),
        reference_spin(50.0, StateIndex(0, -1), c_sym=0.0, tensor_h=0.0, alpha=0.6,
                       a_shape=5.0),
    ], ids=["mass-26.8", "mass-20", "mass-50"])
    def test_roots_are_oracle_confirmed(self, eq):
        res = solve_spectrum(eq, OPTS)
        assert res.roots and all(r.method == "oracle-confirmed" for r in res.roots)


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
    def test_h_zero_members_share_terms_and_pieces(self, tensor_h):
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
                        assert repr(spectrum._f_terms(a)) == repr(spectrum._f_terms(b))
                        assert all(same_series(x, y) for x, y in zip(a._pieces, b._pieces))
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

    def test_root_in_radicand_sliver_is_found(self):
        # a positive root sits ~1e-4 below the 4c8 = 0 crossing, far inside
        # one uniform grid step; the boundary-packed samples must catch it
        eq = build_equation(spin_params(), StateIndex(0, -2), ASSEMBLY_STRICT)
        res = solve_spectrum(eq, OPTS)
        hit = [r for r in res.roots if r.sign_class == POSITIVE]
        assert len(hit) == 1
        assert hit[0].energy == pytest.approx(4.934149818966, abs=1e-9)
        assert hit[0].method == "oracle-confirmed"


def pseudospin_core(eq):
    """A spin equation's pseudospin-form twin at (-C_sym, -V): the same q, n
    and coupling scale, evaluated with sigma = +1 by the module's own code."""
    c = eq.coeffs
    return types.SimpleNamespace(
        params=dataclasses.replace(eq.params, symmetry=PSEUDOSPIN, c_sym=-eq.params.c_sym),
        state=eq.state, q=eq.q, scale=eq.scale, mirror=1.0,
        coeffs=PotentialCoeffs(-c.v1, -c.v2, -c.v3),
    )


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
        terms, core_terms = spectrum._f_terms(eq), spectrum._f_terms(core)
        assert same_bits(spectrum._f_arrays(terms, grid),
                         spectrum._f_arrays(core_terms, -grid))
        for e in grid[::97].tolist():
            assert same_bits(spectrum._f_point(terms, e), spectrum._f_point(core_terms, -e))
            assert normal_form(eq, e) == normal_form(core, -e)

        # the core's pieces are in x = -E: their odd coefficients change sign
        for piece, core_piece in zip(eq._pieces, spectrum._poly_pieces(core)):
            to_e = (-1.0) ** np.arange(core_piece.size)
            assert same_series(piece, core_piece * to_e)


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
        solved = []
        solve = spectrum.solve_spectrum

        def counting(eq, opts=OPTS):
            solved.append((eq.state, eq.params.tensor_h))
            return solve(eq, opts)

        monkeypatch.setattr(spectrum, "solve_spectrum", counting)
        params = ModelParams(mass=5.0, symmetry=symmetry, c_sym=0.0, tensor_h=1.0)
        rep = splitting_report(params, neg, pos, OPTS)
        assert solved == [(neg, 1.0), (pos, 1.0), (neg, 0.0)]
        assert rep.baseline_neg == rep.baseline_pos

        solved.clear()
        rep = splitting_report(dataclasses.replace(params, tensor_h=0.0), neg, pos, OPTS)
        assert len(solved) <= 2 and {state for state, _ in solved} == {neg}
        assert rep.energy_neg == rep.energy_pos == rep.baseline_neg

    def test_negative_root_raises_when_absent(self):
        res = solve_spectrum(build_equation(ps_params(mass=0.8), StateIndex(1, -1)), OPTS)
        with pytest.raises(NoRootFound):
            negative_root(res)
