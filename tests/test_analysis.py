import dataclasses

import numpy as np
import pytest

from dirac_nu import spectrum
from dirac_nu.analysis import (
    DEFAULT_H_VALUES,
    approx_report,
    h_sweep,
    log_grid,
    potential_profile,
)
from dirac_nu.errors import DomainError
from dirac_nu.model import MAX_POINTS, PSEUDOSPIN, SPIN, ModelParams, StateIndex, eval_potential
from dirac_nu.spectrum import SolveOptions

OPTS = SolveOptions()


def params(**kw):
    base = dict(mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestApproxReport:
    def test_valid_below_half_inverse_range(self):
        # the substitution is rated for 2 alpha r <= 0.5
        p = params()
        rep = approx_report(p, r_min=1e-4, r_max=0.5 / (2 * p.alpha))
        assert rep.max_rel_err < 1e-3
        assert rep.rel_err[-1] == pytest.approx(2.57855591524275e-4, rel=1e-6)

    def test_error_vanishes_at_origin(self):
        rep = approx_report(params(), r_min=1e-6, r_max=0.1)
        assert rep.rel_err[0] < 1e-9
        # and grows monotonically with r once clear of the float noise floor
        live = rep.rel_err[rep.rel_err > 1e-12]
        assert live.size > 100
        assert np.all(np.diff(live) >= 0)

    def test_correction_term_helps_in_rated_range(self):
        p = params()
        rep = approx_report(p, r_min=1e-3, r_max=0.5 / (2 * p.alpha))
        assert rep.max_rel_err < rep.max_rel_err_nocorr
        assert np.all(rep.rel_err <= rep.rel_err_nocorr + 1e-15)

    def test_far_field_breakdown_is_reported(self):
        # outside the rated range the corrected form saturates at a constant
        # while 1/r^2 keeps falling, so the report should show the blow-up
        rep = approx_report(params(), r_min=1e-3, r_max=10.0)
        assert rep.max_rel_err > 1.0
        assert rep.r_at_max == pytest.approx(10.0, rel=1e-12)

    def test_frozen_point_values(self):
        # at 2 alpha r = 1 the corrected and uncorrected forms bracket 1/r^2
        p = params()
        r = 1.0 / (2 * p.alpha)
        rep = approx_report(p, r_min=r, r_max=r + 1e-9, n_points=2)
        exact = 1.0 / r**2
        assert rep.approx[0] / exact == pytest.approx(1.0040069275411257, rel=1e-10)
        assert rep.approx_nocorr[0] / exact == pytest.approx(0.9206735942077923, rel=1e-10)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            approx_report(params(), r_min=1.0, r_max=0.5)
        with pytest.raises(DomainError):
            approx_report(params(), r_min=0.0, r_max=1.0)
        with pytest.raises(DomainError):
            approx_report(params(), r_min=0.1, r_max=1.0, n_points=1)

    def test_point_count_bounded_before_anything_is_allocated(self):
        with pytest.raises(DomainError, match=f"n_points must be <= {MAX_POINTS}, got"):
            approx_report(params(), n_points=MAX_POINTS + 1)
        with pytest.raises(DomainError, match=f"n_points must be <= {MAX_POINTS}, got"):
            log_grid(1e-2, 10.0, MAX_POINTS + 1)


class TestPotentialProfile:
    def test_asymptote(self):
        p = params()
        prof = potential_profile(p, np.geomspace(1e-2, 60.0, 200))
        assert prof.asymptote == pytest.approx(-0.09, abs=1e-15)
        assert prof.v[-1] == pytest.approx(prof.asymptote, abs=1e-12)

    def test_shape_boundary_flattens_tail(self):
        p = ModelParams(
            mass=5.0, symmetry=PSEUDOSPIN, c_sym=0.0, tensor_h=0.0,
            a_shape=4.0, strict_domain=False,
        )
        prof = potential_profile(p, np.array([5.0, 20.0, 60.0]))
        assert prof.asymptote == 0.0
        assert abs(prof.v[-1]) < 1e-12

    def test_monotone_rise_to_asymptote(self):
        prof = potential_profile(params(), np.geomspace(0.05, 30.0, 400))
        assert np.all(np.diff(prof.v) > 0)
        assert np.all(prof.v < prof.asymptote + 1e-12)

    def test_tensor_column(self):
        p = params(tensor_h=1.0)
        prof = potential_profile(p, np.array([0.5, 1.0, 2.0]))
        assert prof.u == pytest.approx([-2.0, -1.0, -0.5], abs=1e-15)

    def test_width_orders_wells_pointwise(self):
        # larger alpha deepens the well at every radius; asymptotes scale
        # with alpha squared
        pa = params(alpha=0.6)
        pb = params(alpha=0.9)
        grid = np.geomspace(0.02, 30.0, 600)
        va = potential_profile(pa, grid)
        vb = potential_profile(pb, grid)
        assert np.all(vb.v < va.v)
        assert vb.asymptote / va.asymptote == pytest.approx((0.9 / 0.6) ** 2, rel=1e-12)

    def test_near_origin_shape_is_universal(self):
        # r^2 V -> -3/16 independent of both parameters
        r = 1e-5
        for alpha, a_shape in ((0.6, 5.0), (0.9, 4.5), (1.4, 7.0)):
            p = params(alpha=alpha, a_shape=a_shape)
            assert r * r * eval_potential(p, r) == pytest.approx(-3.0 / 16.0, rel=1e-4)


class TestHSweep:
    def test_default_h_values(self):
        assert DEFAULT_H_VALUES == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_splitting_grows_from_zero(self):
        res = h_sweep(
            params(),
            [(StateIndex(1, -1), StateIndex(1, 2))],
            h_values=(0.0, 1.0),
            opts=OPTS,
        )
        assert res.symmetry == PSEUDOSPIN
        assert res.h_values == (0.0, 1.0)
        rows = [r for r in res.rows if not r.error]
        assert len(rows) == 2
        first, last = rows[0], rows[-1]
        assert first.delta_e == 0.0
        assert last.delta_e == pytest.approx(0.319931821, abs=2e-6)
        assert last.energy_neg == pytest.approx(-4.672750523, abs=1e-6)
        assert last.energy_pos == pytest.approx(-4.352818702, abs=1e-6)

    def test_directions_are_opposite(self):
        res = h_sweep(
            params(),
            [(StateIndex(1, -1), StateIndex(1, 2))],
            h_values=(0.0, 0.5, 1.0),
            opts=OPTS,
        )
        assert len(res.directions) == 1
        text = res.directions[0]
        assert "1s1/2 moves down" in text
        assert "0d3/2 moves up" in text

    def test_spin_doublet_sweep(self):
        res = h_sweep(
            params(symmetry=SPIN),
            [(StateIndex(0, -2), StateIndex(0, 1))],
            h_values=(0.0, 1.0),
            opts=OPTS,
        )
        rows = [r for r in res.rows if not r.error]
        assert rows[0].delta_e == 0.0
        assert rows[-1].energy_neg == pytest.approx(-4.964565157, abs=1e-6)
        assert rows[-1].energy_pos == pytest.approx(-4.744442703, abs=1e-6)

    def test_failures_recorded_not_raised(self):
        res = h_sweep(
            params(c_sym=-10.0),
            [(StateIndex(1, -1), StateIndex(1, 2))],
            h_values=(0.0, 1.0),
            opts=OPTS,
        )
        assert all(r.error for r in res.rows)
        assert all(r.energy_neg is None and r.energy_pos is None for r in res.rows)
        # a doublet with no solved row is named by its label, known before any solve
        assert res.directions == ("1s1/2: insufficient data",)

    def test_every_doublet_checked_before_the_first_solve(self, monkeypatch):
        solved = []
        monkeypatch.setattr(spectrum, "_solve_all", lambda eqs, opts: solved.append(eqs))
        good = (StateIndex(1, -1), StateIndex(1, 2))
        bad = (StateIndex(1, -1), StateIndex(2, 2))
        with pytest.raises(DomainError, match="share n"):
            h_sweep(params(), [good, bad], h_values=(0.0, 1.0), opts=OPTS)
        with pytest.raises(DomainError, match="tensor_h must be finite, got inf"):
            h_sweep(params(), [good], h_values=(0.0, float("inf")), opts=OPTS)
        assert solved == []

    def test_h_zero_pair_solved_once(self, monkeypatch):
        # every row's equations go to one batch, the H = 0 pair as one equation
        batches = []
        solve_all = spectrum._solve_all

        def counting(eqs, opts):
            batches.append([(eq.state, eq.params.tensor_h) for eq in eqs])
            return solve_all(eqs, opts)

        monkeypatch.setattr(spectrum, "_solve_all", counting)
        neg, pos = StateIndex(1, -1), StateIndex(1, 2)
        res = h_sweep(params(), [(neg, pos)], h_values=(0.0, 1.0), opts=OPTS)
        assert batches == [[(neg, 0.0), (neg, 1.0), (pos, 1.0)]]
        assert res.rows[0].energy_neg == res.rows[0].energy_pos

    def test_duplicated_doublet_keeps_its_own_direction(self):
        doublet = (StateIndex(1, -1), StateIndex(1, 2))
        once = h_sweep(params(), [doublet], h_values=(1.0,), opts=OPTS)
        twice = h_sweep(params(), [doublet, doublet], h_values=(1.0,), opts=OPTS)
        assert once.directions == ("1s1/2: insufficient data",)
        assert twice.directions == once.directions * 2
        assert twice.rows == once.rows * 2
        both = h_sweep(params(), [doublet, doublet], h_values=(0.0, 1.0), opts=OPTS)
        assert both.directions[0] == both.directions[1] == (
            "1s1/2 moves down, 0d3/2 moves up as H grows 0 -> 1")

    def test_sweep_solves_in_the_given_assembly(self):
        # each row's energies are those of single solves in that assembly,
        # and the strict spin assembly is not the reference one
        neg, pos = StateIndex(0, -2), StateIndex(0, 1)
        p = params(symmetry=SPIN)
        strict = h_sweep(p, [(neg, pos)], (0.0, 0.5, 1.0), OPTS, assembly="strict")
        default = h_sweep(p, [(neg, pos)], (0.0, 0.5, 1.0))  # the positional call
        for row, old in zip(strict.rows, default.rows):
            at = dataclasses.replace(p, tensor_h=row.tensor_h)
            for state, energy in ((neg, row.energy_neg), (pos, row.energy_pos)):
                eq = spectrum.EnergyEquation(at, state, "strict")
                assert energy == spectrum.negative_root(spectrum.solve_spectrum(eq, OPTS))
            assert row.energy_neg != old.energy_neg
        assert default == h_sweep(p, [(neg, pos)], (0.0, 0.5, 1.0), OPTS, assembly="reference")

    def test_pseudospin_sweep_records_the_assembly_error(self):
        res = h_sweep(params(), [(StateIndex(1, -1), StateIndex(1, 2))], (0.0, 1.0), OPTS,
                      assembly="reference")
        assert {row.error for row in res.rows} == {
            "DomainError: pseudospin limit has a single assembly 'strict', got 'reference'"}

    def test_splitting_report_in_the_given_assembly(self):
        neg, pos = StateIndex(0, -2), StateIndex(0, 1)
        p = params(symmetry=SPIN, tensor_h=1.0)
        rep = spectrum.splitting_report(p, neg, pos, OPTS, assembly="strict")
        row = h_sweep(p, [(neg, pos)], (0.0, 1.0), OPTS, assembly="strict").rows
        assert (rep.baseline_neg, rep.energy_neg, rep.energy_pos) == (
            row[0].energy_neg, row[1].energy_neg, row[1].energy_pos)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DomainError):
            h_sweep(params(), [], h_values=(0.0,), opts=OPTS)
        with pytest.raises(DomainError):
            h_sweep(params(), [(StateIndex(1, -1), StateIndex(1, 2))], h_values=(), opts=OPTS)
