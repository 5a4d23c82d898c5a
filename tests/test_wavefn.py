import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi

from dirac_nu import wavefn
from dirac_nu.errors import DomainError, GridTooCoarse, NonNormalizable
from dirac_nu.model import PSEUDOSPIN, SPIN, ModelParams, StateIndex
from dirac_nu.spectrum import (
    ASSEMBLY_STRICT,
    SolveOptions,
    build_equation,
    negative_root,
    solve_spectrum,
)
from dirac_nu.wavefn import (
    DECAYING,
    TERMINATING,
    JacobiSpec,
    branch_functions,
    default_grid,
    jacobi_deriv,
    jacobi_eval,
    lower_component,
    node_count_of,
    pseudospin_components,
    spin_limit_components,
    upper_component_from_lower,
    verify_ode,
)

OPTS = SolveOptions()


def ps_eq(n, kappa, tensor_h=0.0):
    p = ModelParams(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=tensor_h)
    return build_equation(p, StateIndex(n, kappa))


def spin_eq(n, kappa, tensor_h=0.0):
    p = ModelParams(mass=5.0, symmetry=SPIN, c_sym=0.0, tensor_h=tensor_h)
    return build_equation(p, StateIndex(n, kappa))


def solved(eq):
    return negative_root(solve_spectrum(eq, OPTS))


# A weakly bound spin-limit state (nu = 0.035, r_max = 200): s = e^{-2 alpha r}
# underflows to 0 on the far part of its grid.
WEAK_SPIN = dict(
    params=ModelParams(
        mass=3.373894432862397,
        symmetry=SPIN,
        c_sym=-0.7319057991905558,
        tensor_h=2.6356974365712036,
        alpha=1.9598356769796468,
        a_shape=7.2365174942295045,
    ),
    state=StateIndex(0, -2),
    assembly=ASSEMBLY_STRICT,
)
# nu = 0.062 in the reference assembly
WEAKER_SPIN = dict(
    params=ModelParams(
        mass=3.890484709320362,
        symmetry=SPIN,
        c_sym=-1.7045679001479757,
        tensor_h=0.4773891024216623,
        alpha=0.7632541572389754,
        a_shape=4.604268544635814,
    ),
    state=StateIndex(1, -3),
    assembly="reference",
)


def weak_state(case):
    eq = build_equation(case["params"], case["state"], case["assembly"])
    return eq, solve_spectrum(eq, OPTS).selected.energy


def exact_jacobi(n, a, b, x):
    """P_n^(a, b)(x) by the three-term recurrence in exact rational arithmetic."""
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    prev, curr = Fraction(1), (a - b) / 2 + (a + b + 2) * x / 2
    if n == 0:
        return 1.0
    for k in range(2, n + 1):
        c = 2 * k + a + b
        curr, prev = (
            (c - 1) * (c * (c - 2) * x + a * a - b * b) * curr
            - 2 * (k + a - 1) * (k + b - 1) * c * prev
        ) / (2 * k * (k + a + b) * (c - 2)), curr
    return float(curr)


def quad_norm_constant(eq, energy, branch, r_max):
    """1/sqrt of the quad integral of G^2 + F^2 on (0, r_max), built from scipy pieces."""
    bf = branch_functions(eq, energy, branch)
    p = eq.params
    n, a, b = bf.jacobi.n, bf.jacobi.a, bf.jacobi.b
    pe, t = bf.s_exponent, bf.one_minus_exponent
    lam = eq.state.kappa + p.tensor_h
    if p.symmetry == PSEUDOSPIN:
        denom, sign = p.mass - energy + p.c_sym, -1.0
    else:
        denom, sign = p.mass + energy - p.c_sym, 1.0

    def density(r):
        s = math.exp(-2.0 * p.alpha * r)
        x = 1.0 - 2.0 * s
        w = eval_jacobi(n, a, b, x)
        dw = 0.5 * (n + a + b + 1.0) * eval_jacobi(n - 1, a + 1.0, b + 1.0, x) if n else 0.0
        envelope = s**pe * (1.0 - s) ** t
        d_ds = envelope * ((pe / s - t / (1.0 - s)) * w - 2.0 * dw)
        partner = (-2.0 * p.alpha * s * d_ds + sign * (lam / r) * envelope * w) / denom
        return (envelope * w) ** 2 + partner**2

    total, _ = quad(density, 0.0, r_max, limit=200, epsabs=0.0, epsrel=1e-13)
    return 1.0 / math.sqrt(total)


class TestJacobiEval:
    def test_degree_zero_and_one(self):
        assert jacobi_eval(JacobiSpec(0, 1.2, 3.4), 0.37) == 1.0
        # P1^(a,b)(x) = (a - b)/2 + (a + b + 2) x / 2
        assert jacobi_eval(JacobiSpec(1, 2.0, 3.0), 0.0) == pytest.approx(-0.5, abs=1e-15)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=8),
        a=st.floats(min_value=-0.9, max_value=4.0),
        b=st.floats(min_value=-0.9, max_value=4.0),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_matches_scipy(self, n, a, b, x):
        ours = jacobi_eval(JacobiSpec(n, a, b), x)
        theirs = eval_jacobi(n, a, b, x)
        assert ours == pytest.approx(theirs, abs=1e-10 * max(1.0, abs(theirs)))

    @pytest.mark.parametrize("m,n", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    def test_orthogonality_under_weight(self, m, n):
        a, b = 1.3, 2.7

        def integrand(s):
            x = 1.0 - 2.0 * s
            return (
                s**a
                * (1.0 - s) ** b
                * jacobi_eval(JacobiSpec(m, a, b), x)
                * jacobi_eval(JacobiSpec(n, a, b), x)
            )

        val, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert abs(val) < 1e-8

    def test_exact_near_degenerate_recurrence(self):
        # k + a + b = 0.003 at k = 2: the three-term recurrence divides by it
        # and loses about six digits; the terminating branch meets such pairs
        spec = JacobiSpec(5, -9.8, 7.803)
        xs = np.linspace(-1.0, 1.0, 41)
        exact = np.array([exact_jacobi(5, -9.8, 7.803, x) for x in xs])
        err = np.max(np.abs(jacobi_eval(spec, xs) - exact)) / np.max(np.abs(exact))
        assert err < 1e-13


class TestJacobiDeriv:
    @pytest.mark.parametrize("n,a,b", [(1, 0.5, 1.5), (3, 2.0, 0.3), (5, 1.1, 1.1)])
    def test_matches_central_difference(self, n, a, b):
        spec = JacobiSpec(n, a, b)
        h = 1e-6
        for x in (-0.6, -0.1, 0.2, 0.7):
            cd = (jacobi_eval(spec, x + h) - jacobi_eval(spec, x - h)) / (2 * h)
            assert jacobi_deriv(spec, x) == pytest.approx(cd, abs=1e-7 * max(1.0, abs(cd)))

    def test_exhausted_order_is_zero(self):
        assert jacobi_deriv(JacobiSpec(2, 1.0, 1.0), 0.3, order=3) == 0.0
        assert jacobi_deriv(JacobiSpec(0, 1.0, 1.0), 0.3, order=1) == 0.0


class TestBranchFunctions:
    def test_rejects_unknown_branch(self):
        eq = ps_eq(1, -1, 1.0)
        with pytest.raises(DomainError):
            branch_functions(eq, solved(eq), branch="growing")

    def test_exponents_at_tabulated_state(self):
        eq = ps_eq(1, -1, 1.0)
        bf = branch_functions(eq, -4.672750523)
        assert bf.nu == pytest.approx(1.6741395171336914, abs=1e-12)
        assert bf.mu == pytest.approx(2.8730755110595336, abs=1e-12)
        assert bf.s_exponent == bf.nu
        assert bf.one_minus_exponent == pytest.approx((1.0 + bf.mu) / 2.0, abs=1e-12)

    def test_terminating_branch_flips_s_exponent(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        dec = branch_functions(eq, energy, DECAYING)
        term = branch_functions(eq, energy, TERMINATING)
        assert term.s_exponent == pytest.approx(-dec.s_exponent, abs=1e-12)
        assert term.one_minus_exponent == pytest.approx(dec.one_minus_exponent, abs=1e-12)


class TestLowerComponent:
    def test_requires_pseudospin_equation(self):
        eq = spin_eq(0, -2, 1.0)
        with pytest.raises(DomainError):
            lower_component(eq, solved(eq))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_node_theorem(self, n):
        eq = ps_eq(n, -1, 1.0)
        table = pseudospin_components(eq, solved(eq))
        assert table.node_count == n
        assert node_count_of(table.dominant) == n

    def test_decay_at_large_r(self):
        eq = ps_eq(1, -1, 1.0)
        table = pseudospin_components(eq, solved(eq))
        peak = np.max(np.abs(table.g))
        assert abs(table.g[-1]) < 1e-6 * peak
        assert abs(table.g[0]) < 1e-2 * peak

    def test_joint_normalization(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        table = pseudospin_components(eq, energy)
        # rebuild both components from scratch with scipy pieces and integrate
        bf = branch_functions(eq, energy)
        coef = table.norm_constant

        def g_of(r):
            s = math.exp(-2.0 * eq.params.alpha * r)
            x = 1.0 - 2.0 * s
            return (
                coef
                * s**bf.s_exponent
                * (1.0 - s) ** bf.one_minus_exponent
                * eval_jacobi(bf.jacobi.n, bf.jacobi.a, bf.jacobi.b, x)
            )

        denom = eq.params.mass - energy + eq.params.c_sym
        lam = eq.state.kappa + eq.params.tensor_h
        h = 1e-6

        def f_of(r):
            dg = (g_of(r + h) - g_of(r - h)) / (2 * h)
            return (dg - (lam / r) * g_of(r)) / denom

        total, _ = quad(
            lambda r: g_of(r) ** 2 + f_of(r) ** 2, 1e-8, table.r[-1], limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-8)
        # and the tabulated grid agrees with its own normalization claim
        grid_total = np.trapezoid(table.g**2 + table.f**2, table.r)
        assert grid_total == pytest.approx(1.0, abs=1e-4)

    def test_norm_constant_grid_invariant(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        a = pseudospin_components(eq, energy)
        b = pseudospin_components(eq, energy, grid=default_grid(eq, energy, n_points=4000))
        assert a.norm_constant == pytest.approx(b.norm_constant, rel=1e-9)

    def test_coupled_component_matches_difference_quotient(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        table = pseudospin_components(eq, energy)
        denom = eq.params.mass - energy + eq.params.c_sym
        lam = eq.state.kappa + eq.params.tensor_h
        bf = branch_functions(eq, energy)
        h = 1e-6

        def g_raw(x):
            s = math.exp(-2.0 * eq.params.alpha * x)
            return bf.value(s)

        for target in (0.3, 0.7, 1.2, 2.0):
            i = int(np.searchsorted(table.r, target))
            r = float(table.r[i])
            dg = (g_raw(r + h) - g_raw(r - h)) / (2 * h)
            expect = table.norm_constant * (dg - (lam / r) * g_raw(r)) / denom
            assert table.f[i] == pytest.approx(expect, abs=2e-6 * max(1.0, abs(expect)))


class TestDerivativeOrder:
    def test_d_ds_is_second_order(self):
        eq = ps_eq(2, -1, 1.0)
        bf = branch_functions(eq, solved(eq))
        ss = np.linspace(0.15, 0.75, 13)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            worst = 0.0
            for s in ss:
                cd = (bf.value(s + h) - bf.value(s - h)) / (2 * h)
                worst = max(worst, abs(cd - bf.d_ds(s)))
            errs.append(worst)
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.9 and order2 >= 1.9


class TestNormalization:
    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_norm_constant_matches_quad_on_bundled_states(self, ref, branch):
        checked = 0
        for cell in ref.cells:
            eq = build_equation(ref.params(cell.symmetry, cell.tensor_h), cell.state)
            selected = solve_spectrum(eq, OPTS).selected
            if selected is None:
                continue
            build = pseudospin_components if cell.symmetry == PSEUDOSPIN else spin_limit_components
            table = build(eq, selected.energy, branch=branch)
            expect = quad_norm_constant(eq, selected.energy, branch, table.r[-1])
            assert table.norm_constant == pytest.approx(expect, rel=1e-10)
            checked += 1
        assert checked >= 50

    def test_overflowing_terminating_tail_is_not_normalizable(self):
        # G^2 + F^2 grows like e^{2 r / decay} on the terminating branch and
        # overflows long before r = 400 decay lengths
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        decay = 1.0 / (2.0 * eq.params.alpha * branch_functions(eq, energy).nu)
        grid = np.geomspace(1e-4, 400.0 * decay, 2000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonNormalizable):
                pseudospin_components(eq, energy, grid=grid, branch=TERMINATING)

    def test_weakly_bound_spin_state_normalizes(self):
        # s underflows to 0 beyond r = 190 on this state's grid; the pair must
        # still come out finite and jointly normalized, with no warning
        eq, energy = weak_state(WEAK_SPIN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = spin_limit_components(eq, energy)
        assert table.nu == pytest.approx(0.0353, abs=1e-4)
        assert np.all(np.isfinite(table.g)) and np.all(np.isfinite(table.f))
        assert table.node_count == 0
        assert np.trapezoid(table.g**2 + table.f**2, table.r) == pytest.approx(1.0, abs=1e-4)


def high_degree_case(n):
    params = ModelParams(mass=20.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=0.0,
                         alpha=0.6, a_shape=5.0)
    return build_equation(params, StateIndex(n, -1))


def assert_normalized_with_n_nodes(eq):
    table = pseudospin_components(eq, solved(eq))
    assert np.all(np.isfinite(table.g)) and np.all(np.isfinite(table.f))
    assert table.node_count == eq.state.n
    assert np.trapezoid(table.g**2 + table.f**2, table.r) == pytest.approx(1.0, abs=1e-4)


class TestHighDegreeTables:
    """Pseudospin tables of mass 20 with n up to 30; from n = 20 the two
    quadrature orders disagree, since the panels ignore the n nodes
    (ROADMAP item 5), and the fix flips the xfails."""

    def test_n_18_normalizes(self):
        assert_normalized_with_n_nodes(high_degree_case(18))

    @pytest.mark.xfail(strict=True, raises=NonNormalizable,
                       reason="ROADMAP item 5: panels ignore the n nodes")
    @pytest.mark.parametrize("n", [20, 24, 30])
    def test_high_n_normalizes(self, n):
        assert_normalized_with_n_nodes(high_degree_case(n))


class TestSpinComponents:
    def test_nodeless_ground_state(self):
        eq = spin_eq(0, -2, 1.0)
        table = spin_limit_components(eq, solved(eq))
        assert table.node_count == 0
        assert node_count_of(table.f) == 0
        assert table.dominant is table.f

    def test_matches_independent_reconstruction(self):
        eq = spin_eq(0, -2, 1.0)
        energy = solved(eq)
        table = spin_limit_components(eq, energy)
        p = eq.params
        alpha = p.alpha
        eta = eq.state.kappa + p.tensor_h + 1.0
        # the spin-limit g(E) and b2(E), written out rather than read from the solver
        g = p.mass + energy - p.c_sym
        b2 = (p.mass - energy) * (p.mass + energy - p.c_sym)
        w = g * eq.scale / (4.0 * alpha * alpha)
        b = b2 / (4.0 * alpha * alpha)
        nu = math.sqrt(eta * (eta - 1.0) * p.c0 + w * eq.coeffs.v3 + b)
        mu = 2.0 * math.sqrt((eta - 0.5) ** 2 + w * eq.coeffs.total)
        ja = 2.0 * nu
        jb = mu

        def f_of(r):
            s = math.exp(-2.0 * alpha * r)
            x = 1.0 - 2.0 * s
            return (
                table.norm_constant
                * s**nu
                * (1.0 - s) ** ((1.0 + mu) / 2.0)
                * eval_jacobi(eq.state.n, ja, jb, x)
            )

        denom = p.mass + energy - p.c_sym
        h = 1e-6

        def g_of(r):
            df = (f_of(r + h) - f_of(r - h)) / (2 * h)
            return (df + ((eq.state.kappa + p.tensor_h) / r) * f_of(r)) / denom

        idx = slice(40, len(table.r) - 40, 97)
        for r, f_t, g_t in zip(table.r[idx], table.f[idx], table.g[idx]):
            assert f_t == pytest.approx(f_of(r), abs=1e-8 * max(1.0, abs(f_t)))
            assert g_t == pytest.approx(g_of(r), abs=1e-6 * max(1.0, abs(g_t)))


class TestVerifyOde:
    def test_terminating_branch_solves_equation(self):
        for eq in (ps_eq(1, -1, 1.0), spin_eq(0, -2, 1.0)):
            assert verify_ode(eq, solved(eq)) < 1e-8

    @pytest.mark.parametrize("case,nu", [(WEAK_SPIN, 0.0353), (WEAKER_SPIN, 0.0618)])
    def test_small_nu_terminating_branch(self, case, nu):
        # s underflows to 0 at the far end of these grids, where a literal
        # s^(-nu - 2) in psi'' is infinite; the residual must stay finite
        eq, energy = weak_state(case)
        assert branch_functions(eq, energy).nu == pytest.approx(nu, abs=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = verify_ode(eq, energy)
        assert math.isfinite(residual) and residual < 1e-8

    def test_decaying_branch_does_not(self):
        eq = ps_eq(1, -1, 1.0)
        assert verify_ode(eq, solved(eq), branch=DECAYING) > 1e-2

    def test_detuned_energy_fails(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        good = verify_ode(eq, energy)
        bad = verify_ode(eq, energy + 1e-3)
        assert bad / good >= 1e3

    def test_branch_tradeoff(self):
        # terminating solves the equation but blows up; decaying is
        # normalizable but is not an exact solution
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        term = lower_component(eq, energy, branch=TERMINATING)
        term_pair = upper_component_from_lower(eq, term)
        dec_pair = pseudospin_components(eq, energy)
        term_dom, dec_dom = np.abs(term_pair.dominant), np.abs(dec_pair.dominant)
        assert term_dom[-1] > 1e-6 * np.max(term_dom)
        assert dec_dom[-1] <= 1e-6 * np.max(dec_dom)
        assert term_pair.residual_norm < 1e-8
        assert dec_pair.residual_norm > 1e-2

    def test_coarse_grid_rejected(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        with pytest.raises(GridTooCoarse):
            verify_ode(eq, energy, grid=np.linspace(0.1, 5.0, 20))


class TestWorkPerTable:
    """A table derives the constants once per branch it builds: for the lower
    table (pseudospin only), for the completion, and in verify_ode; the
    completion evaluates the branch once for its grid and both quadrature
    orders."""

    @pytest.mark.parametrize(
        "eq, calls",
        [(ps_eq(1, -1, 1.0), 3), (spin_eq(0, 1, 1.0), 2)],
        ids=["pseudospin", "spin"],
    )
    def test_calls_per_table(self, eq, calls, monkeypatch):
        energy = solve_spectrum(eq, OPTS).selected.energy
        components = (pseudospin_components if eq.params.symmetry == PSEUDOSPIN
                      else spin_limit_components)
        counts = {"derive": 0, "evaluate": 0}
        derive, evaluate = wavefn.derive_constants, wavefn.BranchFunctions.evaluate

        def counted_derive(problem):
            counts["derive"] += 1
            return derive(problem)

        def counted_evaluate(bf, log_s):
            counts["evaluate"] += 1
            return evaluate(bf, log_s)

        monkeypatch.setattr(wavefn, "derive_constants", counted_derive)
        monkeypatch.setattr(wavefn.BranchFunctions, "evaluate", counted_evaluate)
        components(eq, energy)
        assert counts == {"derive": calls, "evaluate": calls}


GRID = np.geomspace(1e-3, 30.0, 200)


def grid_with(index, value):
    r = GRID.copy()
    r[index] = value
    return r


MALFORMED_GRIDS = {
    "2-d": GRID.reshape(2, 100),
    "one point": GRID[:1],
    "zero": grid_with(0, 0.0),
    "decreasing pair": grid_with(50, GRID[52]),
    "nan": grid_with(50, math.nan),
    "inf": grid_with(-1, math.inf),
}


class TestGridAndGuards:
    @pytest.mark.parametrize("grid", MALFORMED_GRIDS.values(), ids=MALFORMED_GRIDS.keys())
    @pytest.mark.parametrize("build, eq", [
        (lower_component, ps_eq(1, -1, 1.0)),
        (spin_limit_components, spin_eq(0, -2, 1.0)),
        (verify_ode, ps_eq(1, -1, 1.0)),
    ], ids=["lower_component", "spin_limit_components", "verify_ode"])
    def test_malformed_grid_is_a_domain_error(self, build, eq, grid):
        with pytest.raises(DomainError, match="grid must be"):
            build(eq, solved(eq), grid=grid)

    @pytest.mark.parametrize("r_min", [0.0, -1.0, math.nan, math.inf])
    def test_default_grid_rejects_r_min(self, r_min):
        eq = ps_eq(1, -1, 1.0)
        with pytest.raises(DomainError, match="r_min must be finite and positive"):
            default_grid(eq, solved(eq), r_min=r_min)

    def test_default_grid_reaches_decay_target(self):
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        r = default_grid(eq, energy)
        nu = branch_functions(eq, energy).nu
        s_tail = math.exp(-2.0 * eq.params.alpha * r[-1])
        assert s_tail**nu == pytest.approx(1e-12, rel=1e-6)
        assert np.all(np.diff(r) > 0)

    def test_non_normalizable_raises(self):
        # bisect onto the c8 = 0 crossing, where the decay exponent clamps
        # to zero and the decaying branch stops existing
        from dirac_nu.errors import NegativeRadicand
        from dirac_nu.nu_core import derive_constants
        from dirac_nu.spectrum import ASSEMBLY_STRICT, normal_form

        p = ModelParams(mass=5.0, symmetry=SPIN, c_sym=0.0, tensor_h=0.0)
        eq = build_equation(p, StateIndex(0, -2), ASSEMBLY_STRICT)

        def classify(energy):
            try:
                nu = derive_constants(normal_form(eq, energy)).sqrt_c8
            except NegativeRadicand:
                return -1
            return 0 if nu == 0.0 else 1

        lo, hi = 4.93, 4.99
        assert classify(lo) == 1 and classify(hi) == -1
        probe = None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            side = classify(mid)
            if side == 0:
                probe = mid
                break
            if side == 1:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 0.0:
                break
        assert probe is not None
        with pytest.raises(NonNormalizable):
            branch_functions(eq, probe)
        with pytest.raises(NonNormalizable):
            default_grid(eq, probe)
        # the terminating branch, s^0 (1 - s)^t P, still normalizes on a finite grid
        grid = np.geomspace(1e-4, 20.0, 400)
        table = spin_limit_components(eq, probe, grid=grid, branch=TERMINATING)
        expect = quad_norm_constant(eq, probe, TERMINATING, grid[-1])
        assert table.norm_constant == pytest.approx(expect, rel=1e-10)
