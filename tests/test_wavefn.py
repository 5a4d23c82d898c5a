import hashlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi, roots_jacobi

from dirac_nu import wavefn
from dirac_nu.errors import DomainError, GridTooCoarse, NonNormalizable
from dirac_nu.model import (
    MAX_POINTS, PSEUDOSPIN, SPIN, ModelParams, StateIndex, log_grid, within_doubles,
)
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


def jacobi_derivative(spec, x, order=1):
    """d^m/dx^m P_n^{(a, b)}(x) as ``BranchFunctions.evaluate`` takes it:
    ``jacobi_eval`` at order 0, the last of ``_derivatives`` above it."""
    x = np.asarray(x, dtype=float)
    return jacobi_eval(spec, x) if order == 0 else wavefn._derivatives(spec, x, order)[-1]


class TestJacobiDeriv:
    @pytest.mark.parametrize("n,a,b", [(1, 0.5, 1.5), (3, 2.0, 0.3), (5, 1.1, 1.1)])
    def test_matches_central_difference(self, n, a, b):
        spec = JacobiSpec(n, a, b)
        h = 1e-6
        for x in (-0.6, -0.1, 0.2, 0.7):
            cd = (jacobi_eval(spec, x + h) - jacobi_eval(spec, x - h)) / (2 * h)
            assert jacobi_derivative(spec, x) == pytest.approx(cd, abs=1e-7 * max(1.0, abs(cd)))

    def test_exhausted_order_is_zero(self):
        assert jacobi_derivative(JacobiSpec(2, 1.0, 1.0), 0.3, order=3) == 0.0
        assert jacobi_derivative(JacobiSpec(0, 1.0, 1.0), 0.3, order=1) == 0.0


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


# The seeded spin state of seeded_bound_states with n = 5, kappa = -2
# (nu = 2.59, mu = 1.468, origin panel (0, 0.346)): an origin rule at the
# table's own N nodes misses its origin panel by 2.8e-8.
ORIGIN_SPIN = dict(
    params=ModelParams(
        mass=18.09149199301425,
        symmetry=SPIN,
        c_sym=-0.3386104376814931,
        tensor_h=-1.2054085125620198,
        alpha=0.5579844165808748,
        a_shape=5.909674558507334,
    ),
    state=StateIndex(5, -2),
    assembly=ASSEMBLY_STRICT,
)
# mu = 99.4, where (r/e0)^(mu - 1) spans more than the doubles over the
# origin panel's nodes
LARGE_MU = dict(
    params=ModelParams(mass=50.0, symmetry=PSEUDOSPIN, tensor_h=1.0),
    state=StateIndex(0, -50),
    assembly=ASSEMBLY_STRICT,
)


def origin_integrals(eq, energy, branch):
    """The origin panel's share of the normalization integral at each of
    NORM_ORDERS: the product rule of ``_norm_rules``, and a Gauss-Jacobi rule
    for (r/e0)^(mu - 1) from scipy with the power divided out of its weights."""
    p = eq.params
    bf = branch_functions(eq, energy, branch)
    e0 = wavefn._norm_edges(p.alpha, bf.nu, float(default_grid(eq, energy)[-1]))[0]
    denom = wavefn._coupling_denominator(eq, energy)

    def density(r, log_scale=None):
        solved, s_d_ds = bf.evaluate(-2.0 * p.alpha * r, 1, log_scale)
        partner = (-2.0 * p.alpha * s_d_ds
                   - eq.mirror * (eq.state.kappa + p.tensor_h) / r * solved) / denom
        return solved * solved + partner * partner

    product, gauss_jacobi = [], []
    for order in wavefn.NORM_ORDERS:
        r, log_scale, (w,) = wavefn._norm_rules(np.empty(0), np.array([e0]), bf.mu, (order,))
        product.append(float(w @ density(r, log_scale)))
        x, wx = roots_jacobi(order, 0.0, bf.mu - 1.0)
        gauss_jacobi.append(0.5 * e0 * float(
            (wx * (1.0 + x) ** (1.0 - bf.mu)) @ density(0.5 * e0 * (1.0 + x))))
    return product, gauss_jacobi


class TestOriginRule:
    """The product rule of the origin panel (``wavefn._norm_rules``)."""

    @pytest.mark.parametrize("order", wavefn.NORM_ORDERS)
    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.0, 1.4680658288465787, 5.0, 20.0])
    def test_exact_for_every_degree(self, mu, order):
        # int_0^1 y^(mu - 1) y^d dy = 1/(mu + d) for d < 2 order, against
        # the rule summed exactly in fractions.  At mu = 0.05 the Legendre
        # coefficients (2k + 1) m_k of y^(mu - 1) grow like k^0.9, so the
        # matvec that forms W loses about three digits near y = 1 and the
        # bound there is 2e-12.
        # the production rule on the origin panel (0, 1), with no r and no other panel
        y, _, (w,) = wavefn._norm_rules(np.empty(0), np.array([1.0]), mu, (order,))
        y, w = [Fraction(v) for v in y], [Fraction(v) for v in w]
        powers = [Fraction(1)] * len(y)
        worst = 0.0
        for d in range(2 * order):
            exact = 1 / (Fraction(mu) + d)
            got = sum(wj * pj for wj, pj in zip(w, powers))
            worst = max(worst, abs(float((got - exact) / exact)))
            powers = [pj * yj for pj, yj in zip(powers, y)]
        assert worst <= (2e-12 if mu < 0.5 else 1e-13)

    def test_matches_gauss_jacobi_on_seeded_tables(self):
        # every origin panel of the TestBitIdentity states, both branches and
        # both orders, against the Gauss-Jacobi rule this one replaced, to
        # 1e-13 of the table's normalization integral.  The origin panels
        # hold up to 29% of it; against a panel's own integral the worst gap
        # is 2.9e-13 (n = 6, mu = 10.4), where y^(mu - 1) is small at most
        # Legendre nodes and the Gauss-Jacobi nodes sit where it is not.
        checked = 0
        for eq, energy in seeded_bound_states():
            build = pseudospin_components if eq.params.symmetry == PSEUDOSPIN else spin_limit_components
            for branch in (DECAYING, TERMINATING):
                integral = build(eq, energy, branch=branch).norm_constant ** -2
                product, gauss_jacobi = origin_integrals(eq, energy, branch)
                for ours, theirs in zip(product, gauss_jacobi):
                    assert abs(ours - theirs) <= 1e-13 * integral
                    checked += 1
        assert checked == 144

    def test_orders_agree_where_n_point_rules_miss(self):
        eq, energy = weak_state(ORIGIN_SPIN)
        table = spin_limit_components(eq, energy)
        assert table.mu == pytest.approx(1.4680658288465787, rel=1e-12)
        assert table.node_count == 5
        low, high = origin_integrals(eq, energy, DECAYING)[0]
        assert low == pytest.approx(high, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_large_mu_normalizes(self, branch):
        # the origin nodes reach r/e0 = 6e-4, where (r/e0)^(1 - mu) is 1e316:
        # the components are evaluated with that power already divided out
        eq, energy = weak_state(LARGE_MU)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pseudospin_components(eq, energy, branch=branch)
        assert table.mu > 99.0
        expect = quad_norm_constant(eq, energy, branch, table.r[-1])
        assert table.norm_constant == pytest.approx(expect, rel=1e-10)

    def test_tables_call_no_lapack(self, monkeypatch):
        # the spectrum's oracle takes eigenvalues; the tables, with the fixed
        # rules they build on first use, take none
        spin, large_mu = weak_state(ORIGIN_SPIN), weak_state(LARGE_MU)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and name[0].islower():
                monkeypatch.setattr(np.linalg, name, refuse)
        wavefn._gauss_legendre.cache_clear()
        wavefn._origin_basis.cache_clear()
        spin_limit_components(*spin)
        pseudospin_components(*large_mu)


def linspace_edges(alpha, nu, r_max):
    """``_norm_edges`` with its uniform edges from np.linspace itself."""
    decay = 1.0 / (2.0 * alpha * nu) if nu > 0.0 else math.inf
    top = min(decay, r_max)
    levels = max(0, math.ceil(math.log(2.0 * alpha * top, 4.0)))
    graded = top * 0.25 ** np.arange(levels, -1, -1)
    uniform = np.linspace(top, r_max, math.ceil((r_max - top) / decay) + 1)
    return np.concatenate([graded, uniform[1:]])


class TestNormEdges:
    """``_norm_edges`` spaces its uniform edges by linspace's arithmetic
    without calling it; they must be linspace's bit for bit."""

    def test_equal_linspace(self):
        # seeded (alpha, nu, r_max), and r_max exactly one decay length or
        # with no decay at all, where linspace gives the one edge r_max
        rng = random.Random("wavefn/norm-edges")
        cases = [(0.75, 0.0, 2.0), (0.75, 0.3, 1.0 / (2.0 * 0.75 * 0.3))]
        for _ in range(5000):
            alpha = rng.uniform(0.5, 3.0)
            nu = rng.choice((0.0, 10.0 ** rng.uniform(-2.0, 1.5)))
            decay = 1.0 / (2.0 * alpha * nu) if nu > 0.0 else 1.0
            cases.append((alpha, nu, decay * 10.0 ** rng.uniform(-1.0, 2.5)))
        one_edge = 0
        for alpha, nu, r_max in cases:
            ours = wavefn._norm_edges(alpha, nu, r_max)
            assert ours.tobytes() == linspace_edges(alpha, nu, r_max).tobytes(), (alpha, nu, r_max)
            one_edge += nu == 0.0 or r_max <= 1.0 / (2.0 * alpha * nu)
        assert one_edge > 1000


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
    table (pseudospin only), for the completion, and in verify_ode; it
    evaluates the branch as often, the completion once for its grid and both
    quadrature orders.  Every evaluation, ``BranchFunctions.evaluate``'s and
    verify_ode's own, goes through ``wavefn._evaluate``, which is counted."""

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
        derive, evaluate = wavefn.derive_constants, wavefn._evaluate

        def counted_derive(problem):
            counts["derive"] += 1
            return derive(problem)

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(wavefn, "derive_constants", counted_derive)
        monkeypatch.setattr(wavefn, "_evaluate", counted_evaluate)
        components(eq, energy)
        assert counts == {"derive": calls, "evaluate": calls}


def seeded_bound_states(per_cell=2):
    """(equation, selected energy) for ``per_cell`` seeded strict-domain states
    of each limit and each n in 0..8; masses 5 to 40 bind every such n."""
    rng = random.Random("wavefn/bit-identity")
    for symmetry in (PSEUDOSPIN, SPIN):
        for n in range(9):
            found = 0
            for _ in range(50):
                mass = rng.uniform(5.0, 40.0)
                params = ModelParams(
                    mass=mass, symmetry=symmetry, c_sym=rng.uniform(-0.5, 0.5) * mass,
                    tensor_h=rng.uniform(-3.0, 3.0), alpha=rng.uniform(0.51, 1.0),
                    a_shape=rng.uniform(4.05, 7.95),
                )
                state = StateIndex(n, rng.choice((-3, -2, -1, 1, 2, 3)))
                eq = build_equation(params, state, ASSEMBLY_STRICT)
                selected = solve_spectrum(eq, OPTS).selected
                if selected is not None:
                    yield eq, selected.energy
                    found += 1
                    if found == per_cell:
                        break
            assert found == per_cell, (symmetry, n)


def update_with_table(digest, table):
    digest.update(repr((
        table.state, table.symmetry, table.branch, table.energy, table.nu, table.mu,
        table.s_exponent, table.one_minus_exponent, table.norm_constant,
        table.node_count, table.residual_norm,
    )).encode())
    for values in (table.r, table.g, table.f):
        digest.update(values.astype("<f8").tobytes())


class TestBitIdentity:
    """Tables and Jacobi derivatives hash to SHA-256 digests.  The Jacobi
    digest was recorded before ``evaluate`` computed only the derivative
    orders its caller reads; the table digests when the origin panel's
    Gauss-Jacobi rule, from LAPACK's eigh, gave way to the product rule of
    ``_norm_rules`` at fixed Gauss-Legendre nodes built without LAPACK.

    The tables' bits follow the kernels of exp, log and expm1: numpy's own
    AVX-512 ones, or the C library's where numpy's are switched off
    (NPY_DISABLE_CPU_FEATURES).  A digest was recorded under each, on numpy
    2.4.6 and glibc 2.36.  The Jacobi sums use only + and *.
    """

    TABLES = {
        "815eb35c787bbc7b5acad46eb9bb035c44e3525f3be5f43185e4246bd9af88c6",  # AVX-512
        "82464ce5c9194ffec4cc36fac17b41ffa0791a247f852b1cb1bb175eebaa724e",  # C library
    }
    JACOBI = "479408f8af9703bb5568493b16820afdf11b050bcbc1d1af847ad5a8d65dd4f2"

    def test_tables(self):
        digest = hashlib.sha256()
        tables = 0
        for eq, energy in seeded_bound_states():
            builds = ((lower_component, pseudospin_components)
                      if eq.params.symmetry == PSEUDOSPIN else (spin_limit_components,))
            for branch in (DECAYING, TERMINATING):
                for build in builds:
                    update_with_table(digest, build(eq, energy, branch=branch))
                    tables += 1
        assert tables == 108
        assert digest.hexdigest() in self.TABLES

    def test_jacobi_derivatives(self):
        rng = random.Random("wavefn/jacobi")
        digest = hashlib.sha256()
        for _ in range(200):
            spec = JacobiSpec(rng.randint(0, 12), rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0))
            x = np.array([rng.uniform(-1.0, 1.0) for _ in range(16)])
            for order in (0, 1, 2):
                digest.update(jacobi_derivative(spec, x, order).astype("<f8").tobytes())
        assert digest.hexdigest() == self.JACOBI

    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_lower_orders_are_a_prefix(self, branch):
        eq = ps_eq(4, -2, 1.0)
        energy = solved(eq)
        bf = branch_functions(eq, energy, branch)
        log_s = -2.0 * eq.params.alpha * default_grid(eq, energy)
        full = bf.evaluate(log_s, 2)
        for order in (0, 1):
            part = bf.evaluate(log_s, order)
            assert len(part) == order + 1
            for ours, theirs in zip(part, full):
                assert ours.tobytes() == theirs.tobytes()


def twin_jacobi(n, a, b, x, top):
    """P_n^{(a, b)}(x) and its x-derivatives up to order ``top``, written out
    with a temporary per step: the explicit sum by Horner's rule in (x + 1)/2
    over the powers of (x - 1)/2, with coefficients from math.prod, and each
    derivative as the lowered polynomial times its factor."""
    def horner(n, a, b):
        binomial = lambda top, k: math.prod((top - k + i) / i for i in range(1, k + 1))
        total = np.full_like(x, binomial(n + a, n))
        lower, upper, power = 0.5 * (x - 1.0), 0.5 * (x + 1.0), np.ones_like(x)
        for j in range(1, n + 1):
            power = power * lower
            total = total * upper + binomial(n + a, n - j) * binomial(n + b, j) * power
        return total

    values, factor = [horner(n, a, b)], 1.0
    for m in range(top):
        if m < n:
            factor *= 0.5 * (n - m + a + m + b + m + 1.0)
            values.append(factor * horner(n - (m + 1), a + (m + 1), b + (m + 1)))
        else:
            values.append(np.zeros_like(x))
    return values


def twin_evaluate(bf, log_s, order, log_scale=None):
    """psi, s psi' and s^2 psi'' as ``BranchFunctions.evaluate`` documents
    them, written out as expressions with temporaries: the evaluator's
    test-only twin."""
    log_s = np.asarray(log_s, dtype=float)
    s = np.exp(log_s)
    one_minus = -np.expm1(log_s)
    p, t = bf.s_exponent, bf.one_minus_exponent
    x = np.asarray(1.0 - 2.0 * s)
    w, *derivatives = twin_jacobi(bf.jacobi.n, bf.jacobi.a, bf.jacobi.b, x, order)
    w = w[()]
    exponent = p * log_s + t * np.log(one_minus)
    if log_scale is not None:
        exponent += log_scale
    common = np.exp(exponent)
    psi = common * w
    if order == 0:
        return (psi,)
    q = s / one_minus
    slope = p - t * q
    dw = derivatives[0][()]
    s_dpsi = common * (slope * w - 2.0 * s * dw)
    if order == 1:
        return psi, s_dpsi
    d2w = derivatives[1][()]
    return psi, s_dpsi, common * (
        (slope * slope - p - t * q * q) * w
        - 4.0 * s * slope * dw
        + 4.0 * s * s * d2w
    )


def twin_residual(eq, energy, branch, grid):
    """verify_ode's residual written out with temporaries, on the twin."""
    bf = branch_functions(eq, energy, branch)
    log_s = -2.0 * eq.params.alpha * grid[1:-1]
    problem = bf.problem
    psi, s_dpsi, s2_d2psi = twin_evaluate(bf, log_s, 2)
    s = np.exp(log_s)
    rational = (
        (-problem.big_a * s * s + problem.big_b * s - problem.big_c)
        / np.expm1(log_s) ** 2
    )
    term3 = rational * psi
    residual = np.abs(s2_d2psi + s_dpsi + term3)
    scale = np.maximum(np.abs(s2_d2psi), np.maximum(np.abs(s_dpsi), np.abs(term3)))
    ok = scale > 0.0
    return float((residual[ok] / scale[ok]).max())


def same_bits(ours, theirs):
    return (type(ours) is type(theirs) and np.shape(ours) == np.shape(theirs)
            and np.asarray(ours).tobytes() == np.asarray(theirs).tobytes())


def leaves_the_doubles(compute):
    """The DomainError text ``compute`` raises inside within_doubles, or None."""
    try:
        with within_doubles(lambda: "the test"):
            compute()
    except DomainError as exc:
        return str(exc)
    return None


class TestEvaluatorTwin:
    """The evaluator computes in place, the twin (``twin_evaluate``) with a
    temporary per operation; they must agree bit for bit, and leave the
    doubles with the same error.  The in-place arithmetic goes through the
    same exp, log and expm1 kernels as the twin's, so this runs with numpy's
    SIMD kernels and with the C library's."""

    @pytest.fixture(scope="class")
    def states(self):
        return list(seeded_bound_states(per_cell=1))

    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_arrays_at_every_order(self, states, branch):
        for eq, energy in states:
            bf = branch_functions(eq, energy, branch)
            r = default_grid(eq, energy)
            edges = wavefn._norm_edges(eq.params.alpha, bf.nu, float(r[-1]))
            at, log_scale, _ = wavefn._norm_rules(r, edges, bf.mu, wavefn.NORM_ORDERS)
            log_s = -2.0 * eq.params.alpha * at
            for order in (0, 1, 2):
                for scale in (None, log_scale):
                    ours = bf.evaluate(log_s, order, scale)
                    theirs = twin_evaluate(bf, log_s, order, scale)
                    assert len(ours) == order + 1
                    assert all(map(same_bits, ours, theirs)), (eq, branch, order)

    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_scalars_and_0d_arrays(self, states, branch):
        for eq, energy in states:
            bf = branch_functions(eq, energy, branch)
            for s in (0.3, 1e-9, 0.999, np.float64(0.6), np.asarray(0.05)):
                for order in (0, 1, 2):
                    ours = bf.evaluate(np.log(s), order)
                    assert all(map(same_bits, ours, twin_evaluate(bf, np.log(s), order)))
                    assert all(isinstance(term, np.float64) for term in ours)
                assert same_bits(bf.value(s), twin_evaluate(bf, np.log(s), 0)[0])
                s_array = np.asarray(s, dtype=float)
                assert same_bits(bf.d_ds(s), twin_evaluate(bf, np.log(s_array), 1)[1] / s_array)

    @pytest.mark.parametrize("branch", [DECAYING, TERMINATING])
    def test_verify_ode_residual(self, states, branch):
        for eq, energy in states:
            grid = default_grid(eq, energy)
            assert verify_ode(eq, energy, branch, grid) == twin_residual(eq, energy, branch, grid)

    def test_same_error_where_the_doubles_are_left(self):
        # at r = 1e-200, q = s / (1 - s) is about 1e200: order 1 holds,
        # order 2 leaves the doubles, as the completion's verify_ode does
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        grid = default_grid(eq, energy, r_min=1e-200)
        log_s = -2.0 * eq.params.alpha * grid
        for branch in (DECAYING, TERMINATING):
            bf = branch_functions(eq, energy, branch)
            for order in (0, 1, 2):
                ours = leaves_the_doubles(lambda: bf.evaluate(log_s, order))
                theirs = leaves_the_doubles(lambda: twin_evaluate(bf, log_s, order))
                assert ours == theirs and (ours is None) == (order < 2)
            with pytest.raises(DomainError) as table:
                (pseudospin_components if branch == DECAYING else
                 lambda *a: pseudospin_components(*a, branch=TERMINATING))(eq, energy, grid)
            expect = leaves_the_doubles(lambda: twin_residual(eq, energy, branch, grid))
            assert str(table.value).endswith(expect.removeprefix("the test"))
        # far out on the growing branch the envelope s^(-nu) overflows in exp
        far = -2.0 * eq.params.alpha * np.linspace(0.1, 1e4, 300)
        bf = branch_functions(eq, energy, TERMINATING)
        for order in (0, 1, 2):
            ours = leaves_the_doubles(lambda: bf.evaluate(far, order))
            assert ours == leaves_the_doubles(lambda: twin_evaluate(bf, far, order))
            assert ours.endswith("overflow encountered in exp")

    def test_noise_constants_are_refused_before_any_table(self, capsys, monkeypatch):
        # V1 + V2 + V3 cancels to noise at A = 1e17: the equation is refused
        # with its own text, and no table is evaluated
        from dirac_nu.cli import main

        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        monkeypatch.setattr(wavefn, "_evaluate", None)
        code = main(["wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1",
                     "--no-strict-domain", "--a-shape", "1e17"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: DomainError: alpha = 0.6, a_shape = 1e+17 put V1 + V2 + V3 = 0.0, "
            "not -3 alpha^2 / 4 = -0.27\n")


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
    "-inf first": grid_with(0, -math.inf),
    "+inf in the middle": grid_with(100, math.inf),
    "nan first": grid_with(0, math.nan),
    "-0.0 first": grid_with(0, -0.0),
    "repeated radius": grid_with(50, GRID[49]),
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

    def test_default_grid_points_bounded(self):
        eq = ps_eq(1, -1, 1.0)
        with pytest.raises(DomainError, match=f"n_points must be <= {MAX_POINTS}, got"):
            default_grid(eq, solved(eq), n_points=MAX_POINTS + 1)

    def test_lower_table_near_the_origin_reads_psi_alone(self):
        # at r = 1e-200, q = s / (1 - s) is about 1e200 and s^2 psi'' leaves
        # the doubles; the lower table never forms it, the completion's
        # verify_ode does
        eq = ps_eq(1, -1, 1.0)
        energy = solved(eq)
        grid = default_grid(eq, energy, r_min=1e-200)
        table = lower_component(eq, energy, grid=grid)
        assert np.all(np.isfinite(table.g))
        assert table.node_count == 1
        with pytest.raises(DomainError, match="the spinor table on r in .* leaves the doubles"):
            pseudospin_components(eq, energy, grid=grid)

    @pytest.mark.parametrize("r_min", [1e-310, 1e-320])
    def test_grid_from_a_subnormal_r_is_a_domain_error_alone(self, r_min):
        # the centrifugal term (kappa + H) / r is inf at such an r; the table
        # raises its DomainError with no RuntimeWarning before it
        eq = ps_eq(0, -1, 0.5)
        energy = solved(eq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                pseudospin_components(eq, energy, grid=log_grid(r_min, 30.0, 2000))
        assert str(exc.value) == (f"the spinor table on r in [{r_min!r}, 30.0] at alpha = 0.6 "
                                  "leaves the doubles: overflow encountered in divide")

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
