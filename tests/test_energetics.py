import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma

from nled import (ConfigurationError, Divergent, PhysicalConstants,
                  QuadratureSpec, SolitonProfile, UnsupportedModel,
                  born_infeld, born_infeld_energy_constant,
                  check_stress_divergence, classical_electron_radius,
                  compute_profile, constants, effective_radius, log_grid,
                  mass_from_energy, maxwell, polynomial, stress_integrals,
                  total_energy)
from nled.energetics import radial_scale
from nled.soliton import RadialGrid

# Independent closed form for the self-energy constant.
C_EXACT = float(gamma(0.25) ** 2 / (6 * np.sqrt(np.pi)))

K = constants("historical1934")
E0 = 9.18e15
R0 = float(np.sqrt(K.e / E0))
BI = born_infeld(E0)


class TestEnergyDensity:
    """The profile's u = E D/4pi - L against closed forms."""

    def test_maxwell(self):
        g = log_grid(1e-12, 1e-10, 9)
        u = compute_profile(maxwell(), K.e, g).u
        assert_allclose(u, K.e**2 / (8 * np.pi * g.r**4), rtol=1e-14)

    def test_born_infeld_at_effective_radius(self):
        # u(r0) = (E0^2/4pi)(sqrt(2) - 1)
        u = compute_profile(BI, K.e, RadialGrid(r=np.geomspace(R0, 10 * R0, 9))).u
        assert_allclose(u[0], E0**2 * (np.sqrt(2) - 1) / (4 * np.pi), rtol=1e-14)
        assert_allclose(u[0] / E0**2, 0.0329621, rtol=1e-5)

    def test_zero_field(self):
        # u vanishes with the field: no offset under the Coulomb tail D^2/8pi
        g = log_grid(1e4 * R0, 1e5 * R0, 9)
        u = compute_profile(BI, K.e, g).u
        assert_allclose(u, K.e**2 / (8 * np.pi * g.r**4), rtol=1e-13)


class TestRadialScale:
    def test_limiting_field_radius(self):
        assert radial_scale(BI, K.e) == R0
        assert radial_scale(BI, K.e, cutoff_r=1e-13) == R0

    def test_unit_polynomial_scale_beats_cutoff(self):
        # E_c = 1 for alpha = 1/16pi: a real scale, not a missing one
        m = polynomial(alpha=1 / (16 * np.pi))
        assert_allclose(radial_scale(m, K.e, cutoff_r=3e-13), np.sqrt(K.e), rtol=1e-15)

    def test_scale_free_falls_back_to_cutoff_then_classical_radius(self):
        assert radial_scale(maxwell(), K.e, cutoff_r=3e-13) == 3e-13
        assert radial_scale(maxwell(), K.e) == classical_electron_radius(K)
        assert radial_scale(polynomial(beta=0.1), K.e) == classical_electron_radius(K)

    def test_nonpositive_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            radial_scale(BI, 0.0)


class TestTotalEnergy:
    def test_born_infeld_constant(self):
        U, err = total_energy(born_infeld(1.0), 1.0)
        assert_allclose(U, C_EXACT, rtol=1e-4)
        assert_allclose(U, C_EXACT, rtol=1e-10)  # actual accuracy is higher
        assert err < 1e-8

    def test_units_scale_out(self):
        U, _ = total_energy(BI, K.e)
        assert_allclose(U / (K.e**2 / R0), C_EXACT, rtol=1e-9)

    def test_maxwell_cutoff(self):
        r_c = 3.7e-13
        U, _ = total_energy(maxwell(), K.e, QuadratureSpec(cutoff_r=r_c))
        assert_allclose(U, K.e**2 / (2 * r_c), rtol=1e-8)

    def test_maxwell_without_cutoff_diverges(self):
        with pytest.raises(Divergent):
            total_energy(maxwell(), K.e)

    @pytest.mark.parametrize("cutoff", [-2.28e-13, 0.0])
    def test_nonpositive_cutoff_rejected(self, cutoff):
        # a cutoff that is itself the radial unit must not integrate as x_c = 1
        for m in (maxwell(), BI):
            with pytest.raises(ConfigurationError):
                total_energy(m, K.e, QuadratureSpec(cutoff_r=cutoff))

    def test_charge_scaling_three_halves(self):
        # at fixed E0, r0 = sqrt(e/E0) so U = C e^2/r0 scales as e^(3/2)
        U1, _ = total_energy(BI, K.e)
        U2, _ = total_energy(BI, 2 * K.e)
        assert_allclose(U2 / U1, 2**1.5, rtol=1e-9)

    def test_richardson_pair_bounded_by_reported_error(self):
        loose = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-8)
        tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12)
        U_loose, err_loose = total_energy(born_infeld(1.0), 1.0, loose)
        U_tight, _ = total_energy(born_infeld(1.0), 1.0, tight)
        assert abs(U_loose - U_tight) <= err_loose


class TestEffectiveRadius:
    def test_paper_convention_matches_tabulated_value(self):
        r0 = effective_radius("paper", K)
        assert_allclose(r0, 2.25e-13, rtol=1e-3)
        assert abs(r0 / 2.28e-13 - 1) <= 0.015

    def test_energy_consistent_modern(self):
        k = constants("modern")
        r0 = effective_radius("energy-consistent", k)
        assert_allclose(r0, 3.483e-13, rtol=1e-3)
        assert_allclose(r0, C_EXACT * classical_electron_radius(k), rtol=1e-9)

    def test_unknown_convention(self):
        with pytest.raises(ConfigurationError):
            effective_radius("other", K)

    def test_non_finite_energy_model_rejected(self):
        with pytest.raises(UnsupportedModel):
            effective_radius("paper", K, model_kind="maxwell")

    def test_energy_constant_against_gamma_form(self):
        assert_allclose(born_infeld_energy_constant(), C_EXACT, rtol=1e-10)
        assert_allclose(born_infeld_energy_constant(), 1.23605, atol=1e-4)


class TestStressIntegrals:
    def test_born_infeld_trace_vanishes(self):
        s = stress_integrals(BI, K.e)
        assert abs(s.laue_trace) <= 1e-8 * s.U_total
        assert np.all(s.momentum == 0.0)
        assert s.quad_error > 0

    def test_maxwell_cutoff_trace_is_minus_energy(self):
        r_c = 2.0e-13
        s = stress_integrals(maxwell(), K.e, QuadratureSpec(cutoff_r=r_c))
        assert_allclose(s.laue_trace, -K.e**2 / (2 * r_c), rtol=1e-6)
        assert_allclose(s.laue_trace, -s.U_total, rtol=1e-9)
        assert s.cutoff_r == r_c

    def test_maxwell_without_cutoff_diverges(self):
        with pytest.raises(Divergent):
            stress_integrals(maxwell(), K.e)


class TestMass:
    def test_rest_energy_round_trip(self):
        assert_allclose(mass_from_energy(K.m_e * K.c**2, K), K.m_e, rtol=1e-15)

    def test_zero(self):
        assert mass_from_energy(0.0, K) == 0.0

    def test_energy_consistent_radius_recovers_electron_mass(self):
        k = constants("modern")
        r0 = effective_radius("energy-consistent", k)
        m = born_infeld(k.e / r0**2)
        U, _ = total_energy(m, k.e)
        assert_allclose(mass_from_energy(U, k), k.m_e, rtol=1e-4)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            mass_from_energy(-1.0, K)


class TestStressDivergence:
    def test_born_infeld_profile(self):
        prof = compute_profile(BI, K.e)
        assert check_stress_divergence(prof) <= 1e-5

    def test_maxwell_cutoff_profile(self):
        grid = log_grid(2e-13, 2e-11, 400)
        prof = compute_profile(maxwell(), K.e, grid)
        assert check_stress_divergence(prof) <= 1e-5

    def test_fabricated_nonconserved_profile_scores_order_one(self):
        # constant T_rr != T_thth: dT_rr/dr = 0 but the geometric term is not
        r = np.geomspace(1.0, 10.0, 50)
        grid = RadialGrid(r=r)
        c1, c2 = 2.0, 0.5
        ed = 4 * np.pi * (c1 - c2)  # E*D so that T_thth = u - E D/4pi = c2
        E = np.full_like(r, np.sqrt(ed))
        prof = SolitonProfile(grid=grid, D=E.copy(), E=E,
                              rho=np.zeros_like(r), eps=np.ones_like(r),
                              u=np.full_like(r, c1), phi=np.zeros_like(r),
                              r0=1.0, E0=None)
        assert check_stress_divergence(prof) >= 0.5
