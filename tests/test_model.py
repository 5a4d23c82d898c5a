import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirac_nu.errors import DomainError
from dirac_nu.model import (
    PSEUDOSPIN,
    SPIN,
    ModelParams,
    StateIndex,
    centrifugal_approx,
    eval_potential,
    eval_tensor,
    kappa_to_l_j,
    kappa_to_pseudo_l,
    log_grid,
    potential_coeffs,
)
from dirac_nu.spectrum import build_equation, solve_spectrum

# admissible strict-domain parameter ranges
alphas = st.floats(min_value=0.51, max_value=5.0, allow_nan=False)
shapes = st.floats(min_value=4.01, max_value=7.99, allow_nan=False)


def params(**kw):
    base = dict(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestPotentialCoeffs:
    def test_reference_parameter_point(self):
        c = potential_coeffs(params(alpha=0.6, a_shape=5.0))
        assert c.v1 == pytest.approx(0.09, abs=1e-15)
        assert c.v2 == pytest.approx(-0.27, abs=1e-15)
        assert c.v3 == pytest.approx(-0.09, abs=1e-15)

    def test_shape_four_kills_asymptote(self):
        c = potential_coeffs(params(a_shape=4.0, strict_domain=False))
        assert c.v3 == 0.0

    @given(alpha=alphas, a_shape=shapes)
    def test_sum_identities(self, alpha, a_shape):
        c = potential_coeffs(params(alpha=alpha, a_shape=a_shape))
        expect_total = -3.0 * alpha * alpha / 4.0
        expect_v1v2_2v3 = (1.0 - a_shape) * alpha * alpha / 4.0
        assert abs(c.total - expect_total) <= 4 * math.ulp(expect_total)
        got = c.v1 + c.v2 + 2.0 * c.v3
        assert abs(got - expect_v1v2_2v3) <= 4 * math.ulp(max(abs(expect_v1v2_2v3), 1.0))


class TestNumpyScalars:
    def test_float64_mass_fails_like_a_float(self):
        # the README state at mass 1e160, where the scan leaves the doubles: a
        # numpy mass used to warn in the oracle first, which -W error raises,
        # and to print as np.float64(...)
        def failure(mass):
            eq = build_equation(params(mass=mass, tensor_h=1.0), StateIndex(1, -1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as info:
                    solve_spectrum(eq)
            return str(info.value)

        assert failure(np.float64(1e160)) == failure(1e160)

    def test_only_numpy_floats_are_converted(self):
        p = params(mass=5, alpha=np.float64(0.6), c_sym=np.float32(0.5))
        assert type(p.mass) is int
        assert type(p.alpha) is float and type(p.c_sym) is float
        assert p == params(mass=5, alpha=0.6, c_sym=0.5)


class TestStrictDomain:
    def test_alpha_at_half_rejected(self):
        with pytest.raises(DomainError):
            params(alpha=0.5)

    def test_shape_at_edges_rejected(self):
        with pytest.raises(DomainError):
            params(a_shape=4.0)
        with pytest.raises(DomainError):
            params(a_shape=8.0)

    def test_override_admits_edge_values(self):
        p = params(alpha=0.3, a_shape=10.0, strict_domain=False)
        assert p.alpha == 0.3

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            params(mass=-1.0)
        with pytest.raises(DomainError):
            params(symmetry="neither")
        with pytest.raises(DomainError):
            params(c0=-0.1)


class TestLogGrid:
    """``log_grid`` does np.geomspace's arithmetic without its wrapper; its
    radii must be geomspace's bit for bit, whatever numpy's SIMD level."""

    @staticmethod
    def assert_geomspace(r_min, r_max, n_points):
        ours = log_grid(r_min, r_max, n_points)
        theirs = np.geomspace(r_min, r_max, n_points)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), (r_min, r_max, n_points)

    def test_equals_geomspace_on_seeded_draws(self):
        # r_min from 1e-200 to 1e3, r_max / r_min up to 1e6, 2 to 5,000 points
        rng = random.Random("model/log-grid")
        for _ in range(1500):
            r_min = 10.0 ** rng.uniform(-200.0, 3.0)
            r_max = r_min * 10.0 ** rng.uniform(0.0, 6.0)
            if not r_max > r_min:
                r_max = math.nextafter(r_min, math.inf)
            n_points = min(round(10.0 ** rng.uniform(math.log10(2.0), math.log10(5000.0))), 5000)
            self.assert_geomspace(r_min, r_max, n_points)

    def test_equals_geomspace_on_ends_one_ulp_apart(self):
        # log10 of the two ends is often the same double, so the step is 0
        rng = random.Random("model/log-grid/ulp")
        for r_min in [1e-200, 1e-4, 1.0, 0.1, 1e3] + [10.0 ** rng.uniform(-200.0, 3.0)
                                                     for _ in range(200)]:
            r_max = math.nextafter(r_min, math.inf)
            for n_points in (2, 3, rng.randint(4, 5000)):
                self.assert_geomspace(r_min, r_max, n_points)


class TestEvalPotential:
    def test_fixed_point_value(self):
        # high-precision reference value at r = 1 fm (50-digit evaluation)
        v = eval_potential(params(), 1.0)
        assert v == pytest.approx(-0.33411418227973178643, rel=1e-14)

    def test_large_r_asymptote(self):
        p = params()
        assert eval_potential(p, 50.0) == pytest.approx(potential_coeffs(p).v3, rel=1e-12)

    def test_small_r_divergence(self):
        # r^2 V(r) -> -3/16 with O(r) correction, independent of the shape
        for a_shape in (4.5, 5.0, 7.0):
            p = params(a_shape=a_shape)
            for r, tol in ((1e-4, 2e-4), (1e-6, 2e-6)):
                assert r * r * eval_potential(p, r) == pytest.approx(-3.0 / 16.0, rel=tol)

    def test_attractive_everywhere_in_domain(self):
        r = np.geomspace(1e-3, 1e2, 400)
        for alpha, a_shape in ((0.6, 5.0), (0.51, 4.1), (2.0, 7.9)):
            v = eval_potential(params(alpha=alpha, a_shape=a_shape), r)
            assert np.all(v < 0.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            eval_potential(params(), 0.0)
        with pytest.raises(DomainError):
            eval_potential(params(), np.array([1.0, -2.0]))


class TestEvalTensor:
    def test_direct_values(self):
        assert eval_tensor(0.0, 2.0) == 0.0
        assert eval_tensor(1.0, 2.0) == -0.5
        assert eval_tensor(1.0, 0.25) == -4.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            eval_tensor(1.0, -1.0)


class TestCentrifugalApprox:
    def test_fixed_point_values(self):
        # 2 alpha r = 1; high-precision reference values, exact 1/r^2 = 1.44
        r = 1.0 / 1.2
        assert centrifugal_approx(params(), r) == pytest.approx(
            1.4457699756592209393, abs=1e-13
        )
        assert centrifugal_approx(params(c0=0.0), r) == pytest.approx(
            1.3257699756592209393, abs=1e-13
        )

    def test_correction_improves_at_moderate_r(self):
        r = 1.0 / 1.2
        exact = 1.44
        err_with = abs(centrifugal_approx(params(), r) - exact)
        err_without = abs(centrifugal_approx(params(c0=0.0), r) - exact)
        assert err_with < err_without

    def test_relative_error_small_radius_window(self):
        p = params()
        r = np.geomspace(1e-4, 0.5 / (2 * p.alpha), 500)
        rel = np.abs(centrifugal_approx(p, r) * r * r - 1.0)
        assert np.max(rel) < 1e-3

    def test_error_vanishes_toward_origin(self):
        p = params()
        assert abs(centrifugal_approx(p, 1e-5) * 1e-10 - 1.0) < 1e-12


class TestQuantumNumbers:
    def test_l_j_map(self):
        assert kappa_to_l_j(-1) == (0, 0.5)
        assert kappa_to_l_j(1) == (1, 0.5)
        assert kappa_to_l_j(-2) == (1, 1.5)
        assert kappa_to_l_j(2) == (2, 1.5)

    def test_pseudo_l_map(self):
        # doublet partners share the pseudo-orbital number
        assert kappa_to_pseudo_l(-1) == kappa_to_pseudo_l(2) == 1
        assert kappa_to_pseudo_l(-2) == kappa_to_pseudo_l(3) == 2
        assert kappa_to_pseudo_l(-4) == kappa_to_pseudo_l(5) == 4

    @given(
        kappa=st.integers(min_value=-9, max_value=9).filter(lambda k: k != 0),
        tensor_h=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_eta_is_lambda_plus_one(self, kappa, tensor_h):
        s = StateIndex(n=0, kappa=kappa)
        assert s.eta(tensor_h) == s.lam(tensor_h) + 1.0

    def test_l_solves_its_defining_quadratic(self):
        for kappa in (-4, -1, 1, 4):
            l, j = kappa_to_l_j(kappa)
            lt = kappa_to_pseudo_l(kappa)
            assert l * (l + 1) == kappa * (kappa + 1)
            assert lt * (lt + 1) == kappa * (kappa - 1)
            assert j == abs(kappa) - 0.5


class TestStateIndex:
    def test_validation(self):
        with pytest.raises(DomainError):
            StateIndex(n=-1, kappa=1)
        with pytest.raises(DomainError):
            StateIndex(n=0, kappa=0)
        with pytest.raises(DomainError):
            StateIndex(n=0.5, kappa=1)

    def test_labels_match_table_conventions(self, ref):
        for cell in ref.cells:
            assert cell.state.spectroscopic_label(cell.symmetry) == cell.label

    def test_pseudospin_positive_kappa_shifts_principal_number(self):
        assert StateIndex(1, 2).spectroscopic_label(PSEUDOSPIN) == "0d3/2"
        assert StateIndex(1, 2).spectroscopic_label(SPIN) == "1d3/2"
        assert StateIndex(1, -1).spectroscopic_label(PSEUDOSPIN) == "1s1/2"

    def test_unlabelable_state_rejected(self):
        with pytest.raises(DomainError):
            StateIndex(0, 2).spectroscopic_label(PSEUDOSPIN)
