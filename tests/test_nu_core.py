import hashlib
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
from dirac_nu.spectrum import build_equation, normal_form, quantization_function, solve_spectrum

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestDeriveConstants:
    def test_hand_worked_example(self):
        d = derive_constants(NuProblem(big_a=6, big_b=5, big_c=1))
        assert d.c8 == 1.0
        assert d.c9 == 2.25
        assert d.sqrt_c8 == 1.0
        assert d.sqrt_c9 == 1.5

    def test_zero_numerator_polynomial(self):
        d = derive_constants(NuProblem(big_a=0, big_b=0, big_c=0))
        assert (d.c8, d.c9, d.sqrt_c8, d.sqrt_c9) == (0.0, 0.25, 0.0, 0.5)

    def test_negative_radicand_raises_with_details(self):
        with pytest.raises(NegativeRadicand) as exc:
            derive_constants(NuProblem(big_a=0, big_b=0, big_c=-1))
        assert exc.value.which == "c8"
        assert exc.value.value == -1.0

    def test_clamp_policy(self):
        assert guarded_sqrt(-RADICAND_CLAMP / 2, "c8") == 0.0
        assert guarded_sqrt(4.0, "c8") == 2.0
        with pytest.raises(NegativeRadicand):
            guarded_sqrt(-10 * RADICAND_CLAMP, "c9")

    @given(big_a=nonneg, big_b=finite, big_c=nonneg)
    def test_c9_decomposition_at_unit_coefficients(self, big_a, big_b, big_c):
        p = NuProblem(big_a=big_a, big_b=big_b, big_c=big_c)
        try:
            d = derive_constants(p)
        except NegativeRadicand:
            return
        c6, c7 = 0.25 + big_a, -big_b
        expect = c6 + c7 + d.c8
        # cancellation scale: error tracks the largest term, not the sum
        scale = max(abs(c6), abs(c7), abs(d.c8), 1.0)
        assert abs(d.c9 - expect) <= 4 * math.ulp(scale)

    def test_deterministic(self):
        p = NuProblem(big_a=2.0, big_b=1.0, big_c=0.5)
        a, b = derive_constants(p), derive_constants(p)
        assert a == b


def table_equation(n=1, kappa=-1, tensor_h=1.0):
    p = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=tensor_h)
    return build_equation(p, StateIndex(n, kappa))


class TestQuantizationResidual:
    def test_negative_n_rejected(self):
        p = NuProblem(big_a=1, big_b=1, big_c=1)
        with pytest.raises(DomainError):
            quantization_residual(p, derive_constants(p), -1)

    def test_vanishes_at_tabulated_energy(self):
        eq = table_equation()
        p = normal_form(eq, -4.672750523)
        assert abs(quantization_residual(p, derive_constants(p), 1)) < 1e-6

    def test_quarter_of_assembled_condition_on_energy_grid(self):
        # in the solver's normal form the NU condition equals f(E)/4
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
        # the pseudospin-limit g(E) = E - M - C_sym, written out
        w = (energy - p.mass - p.c_sym) / (4.0 * p.alpha * p.alpha)
        expect = (eq.q - 0.5) ** 2 + w * eq.coeffs.total
        assert d.c9 == pytest.approx(expect, abs=1e-12 * max(abs(expect), 1.0))


class TestProblemValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            NuProblem(big_a=float("inf"), big_b=1, big_c=1)


# SHA-256 over repr((c8, c9, sqrt(c8), sqrt(c9), quantization_residual)) at
# every root of the bundled cells and the README state, recorded before
# nu_core was cut from the general c1..c13 method to the c1 = c2 = c3 = 1 form
PINNED_CONSTANTS = "46ce610f5ef444ca5cc0ecd32e9eb18e4305341e3e5728cf390e3e28f909e2e1"


def test_constants_at_every_bundled_root_are_pinned(ref):
    equations = [build_equation(ref.params(c.symmetry, c.tensor_h), c.state) for c in ref.cells]
    equations.append(table_equation())
    digest = hashlib.sha256()
    roots = 0
    for eq in equations:
        for root in solve_spectrum(eq).roots:
            problem = normal_form(eq, root.energy)
            d = derive_constants(problem)
            residual = quantization_residual(problem, d, eq.state.n)
            digest.update(repr((d.c8, d.c9, d.sqrt_c8, d.sqrt_c9, residual)).encode())
            roots += 1
    assert (len(equations), roots) == (65, 122)
    assert digest.hexdigest() == PINNED_CONSTANTS
