import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirac_nu.errors import DomainError, NegativeRadicand
from dirac_nu.model import PSEUDOSPIN, ModelParams, StateIndex
from dirac_nu.nu_core import (
    RADICAND_CLAMP,
    NuProblem,
    derive_constants,
    guarded_sqrt,
    quantization_residual,
)
from dirac_nu.spectrum import build_equation, normal_form, quantization_function

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestDeriveConstants:
    def test_hand_worked_example(self):
        d = derive_constants(NuProblem(c1=1, c2=1, c3=1, big_a=6, big_b=5, big_c=1))
        assert d.c4 == 0.0
        assert d.c5 == -0.5
        assert d.c6 == 6.25
        assert d.c7 == -5.0
        assert d.c8 == 1.0
        assert d.c9 == 2.25
        assert d.c10 == -1.0
        assert d.c11 == 3.0
        assert d.c12 == -1.0
        assert d.c13 == -1.0

    def test_zero_numerator_polynomial(self):
        d = derive_constants(NuProblem(c1=1, c2=1, c3=1, big_a=0, big_b=0, big_c=0))
        assert (d.c4, d.c5, d.c6, d.c7, d.c8, d.c9) == (0.0, -0.5, 0.25, 0.0, 0.0, 0.25)

    def test_negative_radicand_raises_with_details(self):
        with pytest.raises(NegativeRadicand) as exc:
            derive_constants(NuProblem(c1=1, c2=1, c3=1, big_a=0, big_b=0, big_c=-1))
        assert exc.value.which == "c8"
        assert exc.value.value == -1.0

    def test_clamp_policy(self):
        assert guarded_sqrt(-RADICAND_CLAMP / 2, "c8") == 0.0
        assert guarded_sqrt(4.0, "c8") == 2.0
        with pytest.raises(NegativeRadicand):
            guarded_sqrt(-10 * RADICAND_CLAMP, "c9")

    @given(big_b=finite, big_c=nonneg, c2=finite, c3=finite, big_a=nonneg)
    def test_c7_c8_shortcuts_when_c1_is_one(self, big_b, big_c, c2, c3, big_a):
        # c1 = 1 forces c4 = 0, so c7 = -B and c8 = C hold exactly
        p = NuProblem(c1=1.0, c2=c2, c3=c3, big_a=big_a, big_b=big_b, big_c=big_c)
        try:
            d = derive_constants(p)
        except NegativeRadicand:
            return
        assert d.c7 == -big_b
        assert d.c8 == big_c

    @given(big_a=nonneg, big_b=finite, big_c=nonneg)
    def test_c9_decomposition_at_unit_coefficients(self, big_a, big_b, big_c):
        p = NuProblem(c1=1.0, c2=1.0, c3=1.0, big_a=big_a, big_b=big_b, big_c=big_c)
        try:
            d = derive_constants(p)
        except NegativeRadicand:
            return
        expect = d.c6 + d.c7 + d.c8
        # cancellation scale: error tracks the largest term, not the sum
        scale = max(abs(d.c6), abs(d.c7), abs(d.c8), 1.0)
        assert abs(d.c9 - expect) <= 4 * math.ulp(scale)

    def test_deterministic(self):
        p = NuProblem(c1=0.3, c2=1.7, c3=0.9, big_a=2.0, big_b=1.0, big_c=0.5)
        a, b = derive_constants(p), derive_constants(p)
        assert a == b


def table_equation(n=1, kappa=-1, tensor_h=1.0):
    p = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=tensor_h)
    return build_equation(p, StateIndex(n, kappa))


class TestQuantizationResidual:
    def test_negative_n_rejected(self):
        p = NuProblem(c1=1, c2=1, c3=1, big_a=1, big_b=1, big_c=1)
        with pytest.raises(DomainError):
            quantization_residual(p, derive_constants(p), -1)

    def test_vanishes_at_tabulated_energy(self):
        eq = table_equation()
        p = normal_form(eq, -4.672750523)
        assert abs(quantization_residual(p, derive_constants(p), 1)) < 1e-6

    def test_quarter_of_assembled_condition_on_energy_grid(self):
        # with c1 = c2 = c3 = 1 the generic condition equals f(E)/4 exactly
        eq = table_equation()
        for energy in np.linspace(-4.9, 4.9, 23):
            try:
                f = quantization_function(eq, float(energy))
            except NegativeRadicand:
                continue
            p = normal_form(eq, float(energy))
            r = quantization_residual(p, derive_constants(p), eq.state.n)
            assert r == pytest.approx(f / 4.0, abs=1e-12 * max(1.0, abs(f)))

    @given(
        lam=st.floats(min_value=-4.0, max_value=5.0, allow_nan=False),
        energy=st.floats(min_value=-4.5, max_value=4.5, allow_nan=False),
    )
    def test_collapsed_c9_identity(self, lam, energy):
        # c9 reduces to (q - 1/2)^2 + w (V1 + V2 + V3) for this problem family
        p = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=lam + 1.0)
        eq = build_equation(p, StateIndex(0, -1))
        prob = normal_form(eq, energy)
        try:
            d = derive_constants(prob)
        except NegativeRadicand:
            return
        w = eq.gamma(energy) / (4.0 * p.alpha * p.alpha)
        expect = (eq.q - 0.5) ** 2 + w * eq.coeffs.total
        assert d.c9 == pytest.approx(expect, abs=1e-12 * max(abs(expect), 1.0))


class TestProblemValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            NuProblem(c1=float("nan"), c2=1, c3=1, big_a=1, big_b=1, big_c=1)
        with pytest.raises(DomainError):
            NuProblem(c1=1, c2=1, c3=1, big_a=float("inf"), big_b=1, big_c=1)
