import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ConfigurationError, NoSolution, RadialGrid, born_infeld,
                  charge_density_profile, classical_electron_radius,
                  compute_profile, constants, default_grid, displacement_profile,
                  field_from_displacement, field_profile, integrated_charge,
                  log_grid, log_schroedinger, maxwell, polynomial, potential_at,
                  potential_profile)
from nled import soliton
from nled.soliton import grid_derivative

# Historical pair: these close to each other (e/r0^2 = E0) by construction.
K = constants("historical1934")
E0 = 9.18e15
R0 = float(np.sqrt(K.e / E0))
BI = born_infeld(E0)

PHI0_COEFF = 1.8540746773013719  # int_0^inf dx/sqrt(1+x^4) = Gamma(1/4)^2/(4 sqrt pi)


def closed_field(r):
    return K.e / np.sqrt(r**4 + R0**4)


def closed_rho(r):
    return K.e * R0**4 / (2 * np.pi * r * (r**4 + R0**4) ** 1.5)


def closed_eps(r):
    return np.sqrt((r**4 + R0**4) / r**4)


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

    def test_default_grid_span(self):
        g = default_grid(R0)
        assert g.n == 400
        assert_allclose(g.r[0], 1e-4 * R0, rtol=1e-12)
        assert_allclose(g.r[-1], 1e4 * R0, rtol=1e-12)


class TestDisplacement:
    def test_unit_values(self):
        g = RadialGrid(r=np.geomspace(1.0, 10.0, 5))
        assert_allclose(displacement_profile(1.0, g)[0], 1.0)

    def test_tabulated_limiting_field(self):
        g = RadialGrid(r=np.geomspace(2.28e-13, 2.28e-12, 5))
        assert_allclose(displacement_profile(K.e, g)[0], 9.18e15, rtol=5e-3)

    def test_inverse_square_scaling(self):
        g = RadialGrid(r=np.geomspace(1.0, 16.0, 5))
        D = displacement_profile(1.0, g)
        assert_allclose(D[4] / D[0], 1 / 256, rtol=1e-12)  # r x16 -> D/256

    def test_gauss_consistency(self):
        # d(r^2 D)/d ln r must vanish away from the origin (r^2 D = e)
        g = default_grid(R0)
        D = displacement_profile(K.e, g)
        resid = grid_derivative(g, g.r**2 * D) * g.r
        assert np.max(np.abs(resid)) <= 1e-12 * K.e


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
        phi0 = potential_at(BI, K.e, 0.0)
        assert abs(phi0 / (PHI0_COEFF * K.e / R0) - 1) <= 1e-4

    def test_maxwell_is_coulomb(self):
        g = log_grid(1e-11, 1e-9, 21)
        phi = potential_profile(maxwell(), K.e, g)
        assert_allclose(phi, K.e / g.r, rtol=1e-10)

    def test_coulomb_tail_at_ten_radii(self):
        phi = potential_at(BI, K.e, 10 * R0)
        assert abs(phi / (K.e / (10 * R0)) - 1) <= 5e-5

    def test_profile_matches_pointwise(self):
        g = log_grid(0.5 * R0, 50 * R0, 11)
        phi = potential_profile(BI, K.e, g)
        for i in (0, 5, 10):
            assert_allclose(phi[i], potential_at(BI, K.e, g.r[i]), rtol=1e-10)


class TestAssembledProfile:
    def test_invariants(self):
        prof = compute_profile(BI, K.e)
        r = prof.grid.r
        assert_allclose(prof.D, K.e / r**2, rtol=0, atol=0)
        assert np.all(prof.E <= prof.D * (1 + 1e-15))
        assert_allclose(prof.eps, prof.D / prof.E, rtol=1e-15)
        assert prof.inversion_failed_below_r is None
        assert prof.r0 == R0 and prof.E0 == E0

    def test_inverts_once_per_grid_point(self, monkeypatch):
        calls = []

        def counting(m, d):
            calls.append(d)
            return field_from_displacement(m, d)

        monkeypatch.setattr(soliton, "field_from_displacement", counting)
        # the potential quadrature inverts at its own nodes; leave it out
        monkeypatch.setattr(soliton, "potential_profile",
                            lambda m, e, grid: np.zeros(grid.n))
        prof = compute_profile(BI, K.e)
        assert len(calls) == prof.grid.n

    def test_log_model_trims_and_reports_boundary(self):
        ls = log_schroedinger(E0)
        prof = compute_profile(ls, K.e)
        boundary = prof.inversion_failed_below_r
        assert boundary is not None
        assert abs(boundary / (np.sqrt(2) * R0) - 1) <= 1e-6
        assert prof.grid.r[0] > boundary
        # trimmed region still internally consistent
        assert_allclose(prof.eps, prof.D / prof.E, rtol=1e-15)

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

    def test_log_model_grid_fully_invalid(self):
        ls = log_schroedinger(E0)
        with pytest.raises(NoSolution):
            compute_profile(ls, K.e, log_grid(1e-3 * R0, 1e-2 * R0, 50))
