import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose
from scipy.special import ellipk, ellipkinc

from nled import (ConfigurationError, Divergent, NoSolution, NumericalError, RadialGrid,
                  attainable_displacement_max, born_infeld, charge_density_profile,
                  check_stress_divergence, classical_electron_radius,
                  compute_profile, constants, default_grid, field_from_displacement,
                  field_profile, integrated_charge, linear_grid, log_grid,
                  log_schroedinger, maxwell, polynomial, potential_at)
from nled import constitutive, energetics, quadrature, soliton

import reference
from conftest import cold_caches

# Historical pair: these close to each other (e/r0^2 = E0) by construction.
K = constants("historical1934")
E0 = 9.18e15
R0 = float(np.sqrt(K.e / E0))
BI = born_infeld(E0)
# just beyond the double root of D'(E) the map folds between extrema 15 % apart in E
XI = 0.001
NARROW = polynomial(alpha=-1.01 * np.sqrt(480 * np.pi * XI) / (48 * np.pi), xi=XI)


def closed_field(r):
    return K.e / np.sqrt(r**4 + R0**4)


def closed_rho(r):
    return K.e * R0**4 / (2 * np.pi * r * (r**4 + R0**4) ** 1.5)


def closed_eps(r):
    return np.sqrt((r**4 + R0**4) / r**4)


def closed_phi(r):
    # (e/r0) F(2 arctan(r0/r) | 1/2) / 2; the arccos form of the amplitude
    # would lose ~1e-9 to cancellation at large r
    return (K.e / R0) * 0.5 * ellipkinc(2.0 * np.arctan(R0 / r), 0.5)


class TestGrid:
    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            log_grid(1.0, 2.0, 4)

    def test_decreasing_radii_rejected(self):
        with pytest.raises(ConfigurationError):
            RadialGrid(r=np.array([1.0, 0.5, 2.0, 3.0, 4.0]))

    def test_nonuniform_log_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            RadialGrid(r=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), spacing="log")

        def grid(off):  # log steps of 0.1, one of them off by off relative
            steps = np.array([0.1, 0.1, 0.1 * (1.0 + off), 0.1])
            return RadialGrid(r=np.exp(np.concatenate([[0.0], np.cumsum(steps)])), spacing="log")
        assert grid(5e-9).n == 5  # uniform to 1e-8 relative
        with pytest.raises(ConfigurationError):
            grid(2e-8)

    def test_default_grid_span(self):
        g = default_grid(R0)
        assert g.n == 400
        assert_allclose(g.r[0], 1e-4 * R0, rtol=1e-12)
        assert_allclose(g.r[-1], 1e4 * R0, rtol=1e-12)


class TestDisplacement:
    def test_unit_values(self):
        g = RadialGrid(r=np.geomspace(1.0, 10.0, 5))
        assert_allclose(compute_profile(maxwell(), 1.0, g).D[0], 1.0)

    def test_tabulated_limiting_field(self):
        g = RadialGrid(r=np.geomspace(2.28e-13, 2.28e-12, 5))
        assert_allclose(compute_profile(maxwell(), K.e, g).D[0], 9.18e15, rtol=5e-3)

    def test_inverse_square_scaling(self):
        g = RadialGrid(r=np.geomspace(1.0, 16.0, 5))
        D = compute_profile(maxwell(), 1.0, g).D
        assert_allclose(D[4] / D[0], 1 / 256, rtol=1e-12)  # r x16 -> D/256

    def test_gauss_consistency(self):
        # r^2 D = e at every radius, to rounding
        g = default_grid(R0)
        D = compute_profile(maxwell(), K.e, g).D
        assert np.max(np.abs(g.r**2 * D / K.e - 1)) <= 4 * np.finfo(float).eps


class TestFieldProfile:
    def test_at_effective_radius(self):
        g = RadialGrid(r=np.geomspace(R0, 10 * R0, 9))
        E = field_profile(BI, K.e, g)
        assert_allclose(E[0], E0 / np.sqrt(2), rtol=1e-12)

    def test_center_limit_is_limiting_field(self):
        prof = compute_profile(BI, K.e)
        assert_allclose(prof.E_center, E0)

    def test_coulomb_recovery_at_ten_radii(self):
        g = RadialGrid(r=np.geomspace(10 * R0, 100 * R0, 9))
        E = field_profile(BI, K.e, g)
        coulomb = K.e / (10 * R0) ** 2
        assert abs(E[0] / coulomb - 1) <= 5e-5

    def test_closed_form_everywhere(self):
        g = log_grid(1e-3 * R0, 1e3 * R0, 400)
        E = field_profile(BI, K.e, g)
        assert np.max(np.abs(E / closed_field(g.r) - 1)) <= 1e-8

    def test_log_model_no_solution_carries_radius(self):
        ls = log_schroedinger(E0)
        g = default_grid(R0)
        with pytest.raises(NoSolution) as exc_info:
            field_profile(ls, K.e, g)
        assert exc_info.value.details["radius_cm"] == g.r[0]


class TestChargeDensity:
    def test_value_at_effective_radius(self):
        g = log_grid(0.05 * R0, 20 * R0, 199)
        rho = charge_density_profile(BI, K.e, g)
        i = np.argmin(np.abs(g.r - R0))
        assert_allclose(rho[i], closed_rho(g.r[i]), rtol=1e-9)
        # spot value e/(4 sqrt2 pi r0^3)
        assert_allclose(closed_rho(R0), K.e / (4 * np.sqrt(2) * np.pi * R0**3),
                        rtol=1e-14)

    def test_steep_tail_decay(self):
        assert_allclose(closed_rho(10 * R0) / closed_rho(R0),
                        (2**1.5) / (10 * (1e4 + 1) ** 1.5), rtol=1e-12)

    def test_closed_form_pointwise(self):
        g = log_grid(1e-3 * R0, 1e3 * R0, 400)
        rho = charge_density_profile(BI, K.e, g)
        assert np.max(np.abs(rho / closed_rho(g.r) - 1)) <= 1e-8

    def test_total_charge_recovered(self):
        prof = compute_profile(BI, K.e)
        assert abs(integrated_charge(prof) / K.e - 1) <= 1e-6

    def test_five_point_floor(self):
        with pytest.raises(ConfigurationError):
            charge_density_profile(BI, K.e, log_grid(R0, 2 * R0, 4))

    @pytest.mark.parametrize("model", [BI, log_schroedinger(E0), polynomial(0.01, xi=0.001),
                                       polynomial(-0.005, xi=0.001), NARROW],
                             ids=["born_infeld", "log_schroedinger", "polynomial",
                                  "monotone_negative_alpha", "narrow_fold"])
    def test_against_derivative_in_50_digits(self, model):
        # 16 radii of the default grid (trimmed above the fold), its ends included
        prof = compute_profile(model, K.e)
        for i in np.linspace(0, prof.grid.n - 1, 16).astype(int):
            ref = reference.rho(model, K.e, prof.grid.r[i])
            assert abs(prof.rho[i] / float(ref) - 1) <= 1e-14

    def test_closed_form_on_coarse_grid(self):
        # 40 points over eight decades: a stencil would be off by 1e6 at the ends
        g = log_grid(1e-4 * R0, 1e4 * R0, 40)
        rho = charge_density_profile(BI, K.e, g)
        assert np.max(np.abs(rho / closed_rho(g.r) - 1)) <= 1e-14

    def test_maxwell_is_exactly_zero(self):
        assert np.all(compute_profile(maxwell(), K.e).rho == 0.0)

    @pytest.mark.parametrize("model", [log_schroedinger(E0), NARROW],
                             ids=["log_schroedinger", "narrow_fold"])
    def test_first_radius_one_ulp_above_fold(self, model):
        # rho goes as (r - r_fail)^-1/2 there; a RuntimeWarning is an error here
        r_fail = np.sqrt(K.e / attainable_displacement_max(model))
        g = log_grid(np.nextafter(r_fail, np.inf), 100 * r_fail, 50)
        rho = charge_density_profile(model, K.e, g)
        assert np.all(np.isfinite(rho)) and rho[0] < rho[1] < 0
        assert compute_profile(model, K.e, g).rho.tobytes() == rho.tobytes()


class TestLinearGrid:
    """A born-infeld profile on a grid uniform in r."""

    GRID = linear_grid(1e-2 * R0, 10 * R0, 400)

    def test_closed_forms(self):
        prof = compute_profile(BI, K.e, self.GRID)
        r = prof.grid.r
        assert np.max(np.abs(prof.E / closed_field(r) - 1)) <= 1e-15
        assert np.max(np.abs(prof.rho / closed_rho(r) - 1)) <= 1e-14
        assert np.max(np.abs(prof.phi / closed_phi(r) - 1)) <= 1e-14

    def test_integrated_charge_is_second_order(self):
        # against Gauss's law, r^2 E at r_max minus r^2 E at r_min; halving
        # the step quarters the trapezoid's error
        errors = []
        for points in (400, 799):
            prof = compute_profile(BI, K.e, linear_grid(1e-2 * R0, 10 * R0, points))
            r, E = prof.grid.r, prof.E
            errors.append(integrated_charge(prof) / (r[-1] ** 2 * E[-1] - r[0] ** 2 * E[0]) - 1)
        assert abs(errors[0]) <= 2e-4
        assert 3.9 <= errors[0] / errors[1] <= 4.1

    def test_stress_divergence(self):
        prof = compute_profile(BI, K.e, self.GRID)
        assert check_stress_divergence(prof) <= 1e-12


class TestPermittivity:
    def test_sqrt_two_at_effective_radius(self):
        g = RadialGrid(r=np.geomspace(R0, 10 * R0, 9))
        eps = compute_profile(BI, K.e, g).eps
        assert_allclose(eps[0], np.sqrt(2), rtol=1e-12)

    def test_unity_far_out(self):
        g = RadialGrid(r=np.geomspace(10 * R0, 100 * R0, 9))
        eps = compute_profile(BI, K.e, g).eps
        assert_allclose(eps[0], np.sqrt(1 + 1e-4), rtol=1e-10)

    def test_inverse_square_close_in(self):
        g = RadialGrid(r=np.geomspace(0.1 * R0, R0, 9))
        eps = compute_profile(BI, K.e, g).eps
        assert_allclose(eps[0], 100.0, rtol=5e-5)

    def test_bounded_below_and_monotone(self):
        prof = compute_profile(BI, K.e)
        assert np.all(prof.eps >= 1.0 - 1e-15)
        # monotone decreasing wherever eps - 1 is resolvable in double
        # precision; the deep Coulomb tail flutters in the last ulps of 1
        resolvable = prof.eps[:-1] - 1.0 > 1e-12
        assert np.all(np.diff(prof.eps)[resolvable] < 0)


class TestPotential:
    def test_center_value(self):
        # K(1/2) = int_0^inf dx/sqrt(1+x^4) = Gamma(1/4)^2/(4 sqrt pi) = 1.8540746773
        phi0 = potential_at(BI, K.e, 0.0)
        assert abs(phi0 / (ellipk(0.5) * K.e / R0) - 1) <= 1e-12

    def test_maxwell_center_diverges(self):
        with pytest.raises(Divergent) as exc_info:
            potential_at(maxwell(), K.e, 0.0)
        assert {"partials", "inner_limits"} <= exc_info.value.details.keys()

    @pytest.mark.parametrize("model, r", [(log_schroedinger(E0), 0.0),
                                          (log_schroedinger(E0), R0),
                                          (polynomial(alpha=-0.01), 0.0)],
                             ids=["log_model_center", "log_model_inside_fold",
                                  "folded_polynomial_center"])
    def test_fold_carries_its_radius(self, model, r):
        with pytest.raises(NoSolution) as exc_info:
            potential_at(model, K.e, r)
        radius = exc_info.value.details["radius_cm"]
        assert radius == np.sqrt(K.e / attainable_displacement_max(model))

    @pytest.mark.parametrize("model", [polynomial(alpha=0.01, xi=0.001), polynomial(xi=1.0)],
                             ids=["alpha_xi", "xi"])
    def test_polynomial_center_value(self, model):
        # phi(0) = int_0^inf E dr = int_0^inf r(E) dE by parts (r E -> 0 at
        # both ends), with r(E) = sqrt(e/D(E)), in 40 digits
        ref = reference.phi(model, K.e, 0.0)
        assert abs(potential_at(model, K.e, 0.0) / float(ref) - 1) <= 1e-14

    @pytest.mark.parametrize("e", [0.0, -K.e])
    @pytest.mark.parametrize("r", [0.0, R0])
    def test_charge_rejected(self, e, r):
        with pytest.raises(ConfigurationError):
            potential_at(BI, e, r)

    @pytest.mark.parametrize("r", [-R0, np.nan, np.inf, 1e200])
    def test_radius_rejected(self, r):
        with pytest.raises(ValueError):
            potential_at(BI, K.e, r)

    @pytest.mark.parametrize("model, e, r", [(BI, K.e, 1e200), (born_infeld(1e-150), 1.0, 1e-80)],
                             ids=["displacement_underflows", "twin_start_overflows"])
    def test_radius_outside_double_range_is_a_configuration_error(self, model, e, r):
        # the energy integrals raise the same class; it is a ValueError too
        with pytest.raises(ConfigurationError, match="not a finite, (positive, )?normal double"):
            potential_at(model, e, r)
        with pytest.raises(ValueError):
            potential_at(model, e, r)

    def test_maxwell_is_coulomb(self):
        g = log_grid(1e-11, 1e-9, 21)
        phi = compute_profile(maxwell(), K.e, g).phi
        assert_allclose(phi, K.e / g.r, rtol=1e-13)

    @pytest.mark.parametrize("grid", [default_grid(R0),
                                      linear_grid(0.01 * R0, 10 * R0, 400),
                                      log_grid(1e-4 * R0, 1e4 * R0, 5)],
                             ids=["default", "linear", "five_points"])
    def test_born_infeld_elliptic_form(self, grid):
        phi = compute_profile(BI, K.e, grid).phi
        assert_allclose(phi, closed_phi(grid.r), rtol=1e-12, atol=0)

    def test_log_model_at_inversion_boundary(self):
        # first radius 1e-9 above the boundary sqrt(2) r0, where E(r) has a
        # sqrt(r - r_b) branch point; reference: phi = int_0^E(r) r(E) dE - r E(r)
        # in 40 digits, whose integrand is smooth through the fold
        ls = log_schroedinger(E0)
        g = log_grid(np.sqrt(2) * R0 * (1 + 1e-9), 1e4 * R0, 50)
        phi = compute_profile(ls, K.e, g).phi
        assert abs(phi[0] / float(reference.phi(ls, K.e, g.r[0])) - 1) <= 1e-14

    def test_coulomb_tail_at_ten_radii(self):
        phi = potential_at(BI, K.e, 10 * R0)
        assert abs(phi / (K.e / (10 * R0)) - 1) <= 5e-5

    def test_profile_matches_pointwise(self):
        # one phi walk serves a grid and a single radius: they agree to rounding,
        # at every point of default and linear grids, a fold's included
        for model in (BI, log_schroedinger(E0), polynomial(0.01, xi=0.001),
                      polynomial(-0.01, xi=0.001), maxwell()):
            r_s = energetics.radial_scale(model, K.e)
            for grid in (None, linear_grid(0.05 * r_s, 20 * r_s, 400)):
                prof = compute_profile(model, K.e, grid)
                phi = [potential_at(model, K.e, r) for r in prof.grid.r]
                assert_allclose(prof.phi, phi, rtol=4e-15, err_msg=model.kind)

    @pytest.mark.parametrize("model, e", [(born_infeld(1.0), 1e300),
                                          (log_schroedinger(1.0), 1e300),
                                          (polynomial(0.01, xi=0.001), 1e280)],
                             ids=["born_infeld", "log_schroedinger", "polynomial"])
    def test_large_charge_profile(self, model, e):
        # e/D overflows deep in the walk's Coulomb tail; r = sqrt(e)/sqrt(D) does not
        prof = compute_profile(model, e)
        r = prof.grid.r[::21]
        assert_allclose(prof.phi[::21], [potential_at(model, e, x) for x in r], rtol=2e-15)
        assert check_stress_divergence(prof) <= 1e-13


class TestAssembledProfile:
    def test_invariants(self):
        prof = compute_profile(BI, K.e)
        r = prof.grid.r
        assert_allclose(prof.D, K.e / r**2, rtol=0, atol=0)
        assert np.all(prof.E <= prof.D * (1 + 1e-15))
        assert_allclose(prof.eps, prof.D / prof.E, rtol=1e-15)
        assert prof.inversion_failed_below_r is None
        assert prof.r0 == R0 and prof.model.E0 == E0

    def test_inverts_once_per_grid_point(self, monkeypatch):
        # one call of the array inversion kernel, holding every grid point
        calls = []

        def counting(m, D):
            calls.append(D.size)
            return constitutive._invert(m, D)

        monkeypatch.setattr(soliton, "_invert", counting)
        prof = compute_profile(BI, K.e)
        assert calls == [prof.grid.n]

    @pytest.mark.parametrize("model", [BI, log_schroedinger(E0), maxwell()],
                             ids=["born_infeld", "log_schroedinger", "maxwell"])
    def test_needs_no_quadpack(self, model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        monkeypatch.setattr(quadrature, "quad", refuse, raising=False)
        prof = compute_profile(model, K.e)
        assert np.all(np.isfinite(prof.phi)) and np.all(np.diff(prof.phi) < 0)

    def test_log_model_trims_and_reports_boundary(self):
        ls = log_schroedinger(E0)
        prof = compute_profile(ls, K.e)
        boundary = prof.inversion_failed_below_r
        assert boundary is not None
        assert abs(boundary / (np.sqrt(2) * R0) - 1) <= 1e-6
        assert prof.grid.r[0] > boundary
        # trimmed region still internally consistent
        assert_allclose(prof.eps, prof.D / prof.E, rtol=1e-15)

    def test_too_few_points_above_fold(self):
        # the record names the innermost radius, whose D has no solution
        ls, g = log_schroedinger(1.0), log_grid(1.0, 1.5, 5)
        with pytest.raises(NoSolution) as trimmed:
            compute_profile(ls, 1.0, g)
        with pytest.raises(NoSolution) as direct:
            field_profile(ls, 1.0, g)
        details = trimmed.value.details
        assert details["D"] > details["D_max_attainable"]
        assert {k: v for k, v in details.items() if k != "note"} == direct.value.details

    @pytest.mark.parametrize("grid", [None, linear_grid(0.5 * R0, 10 * R0, 50)],
                             ids=["log", "linear"])
    def test_trimmed_grid_equals_validated_grid(self, grid):
        ls = log_schroedinger(E0)
        prof = compute_profile(ls, K.e, grid)
        checked = RadialGrid(r=prof.grid.r.copy(), spacing=prof.grid.spacing)
        assert prof.grid.r.tolist() == checked.r.tolist()
        assert prof.grid.spacing == checked.spacing and prof.grid.n == checked.n
        again = compute_profile(ls, K.e, checked)
        assert again.inversion_failed_below_r is None
        for name in ("D", "E", "rho", "eps", "u", "phi"):
            assert getattr(again, name).tolist() == getattr(prof, name).tolist()

    def test_maxwell_default_grid_spans_classical_radius(self):
        prof = compute_profile(maxwell(), K.e)
        r_e = classical_electron_radius(K)
        assert prof.r0 == r_e
        assert_allclose(prof.grid.r[[0, -1]], [1e-4 * r_e, 1e4 * r_e], rtol=1e-12)

    def test_polynomial_far_tail_inverts(self):
        # the far tail, where D(E) - E is below an ulp of E, used to leave
        # the log-E bracket without a sign change
        m = polynomial(alpha=0.01, xi=0.001)
        prof = compute_profile(m, K.e)
        assert prof.grid.n == 400 and prof.grid.r[-1] > 0.11
        assert max(field_from_displacement(m, d).residual for d in prof.D) <= 1e-12

    @pytest.mark.parametrize("grid", [log_grid(1e140, 1e160, 5), log_grid(1e-200, 1e-100, 5)],
                             ids=["underflow", "overflow"])
    def test_grid_outside_double_range_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            compute_profile(born_infeld(1.0), 1.0, grid)

    @pytest.mark.parametrize("run, error", [
        (lambda: log_grid(1.0, np.inf), ConfigurationError),
        (lambda: linear_grid(1.0, np.inf), ConfigurationError),
        (lambda: RadialGrid(r=np.array([1.0, 2.0, 3.0, np.inf, np.inf])), ConfigurationError),
        (lambda: compute_profile(maxwell(), 1e150), ConfigurationError),
        (lambda: compute_profile(polynomial(alpha=2e306), 1e250), ConfigurationError),
        # an explicit grid inside the doubles returned a profile with r0 = inf
        # (e/E_c = 1e404), or with r0 = 0.0
        (lambda: compute_profile(polynomial(alpha=2e306), 1e250, log_grid(1e130, 1e140, 50)),
         ConfigurationError),
        (lambda: compute_profile(maxwell(), 1e-200, log_grid(1e-60, 1e-50, 50)),
         ConfigurationError),
        (lambda: compute_profile(log_schroedinger(1.34e154), 4.8e-10, log_grid(
            1e-120 * np.sqrt(4.8e-10 / 1.34e154), 1e-100 * np.sqrt(4.8e-10 / 1.34e154), 60)),
         NoSolution)],
        ids=["log_grid_inf", "linear_grid_inf", "grid_inf", "maxwell_radius_overflows",
             "scale_quotient_overflows", "scale_quotient_overflows_explicit_grid",
             "classical_radius_underflows_explicit_grid", "fold_radius_squared_underflows"])
    def test_double_range_edge_raises_its_error(self, run, error):
        # under the suite's error::RuntimeWarning filter, not a numpy warning
        with pytest.raises(error):
            run()

    @pytest.mark.parametrize("e", [np.inf, np.nan, 0.0])
    def test_charge_rejected(self, e):
        with pytest.raises(ConfigurationError):
            field_profile(BI, e, default_grid(R0))

    def test_overflowing_column_raises(self):
        # u = E D/4pi - L overflows at the center for this limiting field
        with pytest.raises(NumericalError, match="'u'"):
            compute_profile(born_infeld(1e154), K.e)

    def test_log_model_grid_fully_invalid(self):
        ls = log_schroedinger(E0)
        with pytest.raises(NoSolution):
            compute_profile(ls, K.e, log_grid(1e-3 * R0, 1e-2 * R0, 50))


class TestLayoutCache:
    """The walk's unit layout is cached by its pattern: segment panel counts
    and orders, closing ends and rules, never the steps, D or E."""

    COLUMNS = ("D", "E", "rho", "eps", "u", "phi")

    def test_repeated_profile(self):
        first = compute_profile(NARROW, K.e)
        hits = constitutive._layout.cache_info().hits
        again = compute_profile(NARROW, K.e)
        assert constitutive._layout.cache_info().hits > hits
        for name in self.COLUMNS:
            assert getattr(again, name).tobytes() == getattr(first, name).tobytes()

    @pytest.mark.parametrize("kind", [born_infeld, log_schroedinger])
    def test_default_grids_share_one_layout(self, kind, recorded):
        # a default grid is fixed in radial-scale units, so its pattern
        # repeats across E0 and e, and the stress check reuses it
        log = recorded(constitutive, "_layout")
        profiles = [compute_profile(kind(E0), e) for E0, e in ((1.0, 1.0), (7.0, K.e))]
        check_stress_divergence(profiles[1])
        assert len(log) == 3 and log[0] == log[1] == log[2]

    def test_rules_built_on_use(self):
        # a default born-infeld profile walks panels of orders 7 and 16 and the
        # 24-point closing rule: a fresh process builds those rules and no other
        code = ("import numpy.polynomial.legendre as leg\n"
                "from nled import born_infeld, compute_profile\n"
                "calls, build = [], leg.leggauss\n"
                "leg.leggauss = lambda n: calls.append(n) or build(n)\n"
                "compute_profile(born_infeld(1.0), 1.0)\n"
                "print(calls)")
        calls = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True).stdout)
        assert 0 < len(calls) <= 3 and len(set(calls)) == len(calls), calls

    @pytest.mark.parametrize("model", [BI, log_schroedinger(E0), NARROW, maxwell()],
                             ids=["born_infeld", "log_schroedinger", "fold", "maxwell"])
    def test_equals_cold_caches(self, model):
        r_s = compute_profile(model, K.e).r0
        grid = linear_grid(0.05 * r_s, 20.0 * r_s, 300)
        warm = compute_profile(model, K.e, grid)
        cold_caches()
        cold = compute_profile(model, K.e, grid)
        for name in self.COLUMNS:
            assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()
        assert check_stress_divergence(cold) == check_stress_divergence(warm)
