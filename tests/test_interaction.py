import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ChargeState, FourPotential, boost_charge_state,
                  boost_four_potential, constants, electrokinetic_potential,
                  interaction_energy_momentum, interaction_lagrangian_density)
from nled.interaction import interaction_suite

K = constants("modern")
C = K.c


class TestElectrokineticPotential:
    def test_pure_scalar(self):
        assert electrokinetic_potential(1.0, (0, 0, 0), (0, 0, 0), C) == 1.0

    def test_half_light_speed(self):
        out = electrokinetic_potential(0.0, (C / 2, 0, 0), (2.0, 0, 0), C)
        assert_allclose(out, -1.0, rtol=1e-15)

    def test_static_reduces_to_phi(self):
        for phi in (0.0, -3.2, 7.5):
            assert electrokinetic_potential(phi, (0, 0, 0), (9, 9, 9), C) == phi

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            electrokinetic_potential(1.0, (C, 0, 0), (0, 0, 0), C)


class TestInteractionForms:
    def test_static_charge(self):
        s = ChargeState(rho=1.0, v=(0, 0, 0), e=1.0)
        p = FourPotential(phi=2.0, A=(5.0, -1.0, 0.5))
        a, b = interaction_lagrangian_density(s, p, C)
        assert a == 2.0
        assert b == 2.0

    def test_third_light_speed(self):
        s = ChargeState(rho=3.0, v=(C / 3, 0, 0), e=1.0)
        p = FourPotential(phi=1.0, A=(1.0, 1.0, 0.0))
        a, b = interaction_lagrangian_density(s, p, C)
        assert_allclose(a, 2.0, rtol=1e-15)
        assert_allclose(b, 2.0, rtol=1e-15)

    def test_forms_agree_on_random_states(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            s = ChargeState(rho=rng.uniform(-2, 2),
                            v=u * 0.9 * C * rng.uniform(), e=1.0)
            p = FourPotential(phi=rng.uniform(-2, 2), A=rng.uniform(-2, 2, 3))
            a, b = interaction_lagrangian_density(s, p, C)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestInteractionEnergyMomentum:
    def test_pure_scalar_potential(self):
        eps_e, p_e, resid = interaction_energy_momentum(
            1.0, FourPotential(phi=1.0, A=(0, 0, 0)), K)
        assert eps_e == 1.0
        assert_allclose(p_e, 0.0)
        assert resid == 0.0

    def test_pure_vector_potential(self):
        eps_e, p_e, resid = interaction_energy_momentum(
            2.0, FourPotential(phi=0.0, A=(C, 0, 0)), K)
        assert_allclose(p_e, [2.0, 0, 0], rtol=1e-15)
        # e^2 A_mu^2 = c^2 |p_e|^2 = 4 c^2
        assert_allclose(2.0**2 * C**2, C**2 * float(p_e @ p_e), rtol=1e-15)
        assert resid <= 1e-12 * 4 * C**2

    def test_light_like_potential(self):
        eps_e, p_e, resid = interaction_energy_momentum(
            1.5, FourPotential(phi=5.0, A=(0, 5.0 / C * C, 0)), K)
        lhs = 1.5**2 * (5.0**2 - 5.0**2)
        assert lhs == 0.0
        assert resid <= 1e-12 * max(1.0, abs(-eps_e**2 + C**2 * float(p_e @ p_e)))

    def test_identity_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            e = rng.uniform(-2, 2)
            p = FourPotential(phi=rng.uniform(-2, 2), A=rng.uniform(-2, 2, 3))
            _, _, resid = interaction_energy_momentum(e, p, K)
            lhs = e**2 * (float(p.A @ p.A) - p.phi**2)
            assert resid <= 1e-12 * max(1.0, abs(lhs))


class TestBoostInvariance:
    def test_charge_density_transformation(self):
        s = ChargeState(rho=2.0, v=(0.5 * C, 0, 0), e=1.0)
        out = boost_charge_state(s, (0.6, 0, 0), C)
        gamma = 1.25
        assert_allclose(out.rho, gamma * 2.0 * (1 - 0.6 * 0.5), rtol=1e-15)
        # velocity addition along x
        assert_allclose(out.v[0], (0.5 - 0.6) * C / (1 - 0.3), rtol=1e-14)
        assert out.e == s.e

    def test_form_a_invariant_at_point_six(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            s = ChargeState(rho=rng.uniform(-2, 2),
                            v=u * 0.9 * C * rng.uniform(), e=1.0)
            p = FourPotential(phi=rng.uniform(-2, 2), A=rng.uniform(-2, 2, 3))
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            a0, _ = interaction_lagrangian_density(s, p, C)
            a1, _ = interaction_lagrangian_density(
                boost_charge_state(s, 0.6 * d, C), boost_four_potential(p, 0.6 * d), C)
            assert abs(a1 - a0) <= 1e-10 * max(1.0, abs(a0))

    def test_suite_report(self):
        rep = interaction_suite(states=400, seed=5, c=C)
        assert rep["max_rel_err_forms"] <= 1e-12
        assert rep["max_rel_err_energy_momentum_identity"] <= 1e-12
        assert rep["max_rel_err_boosted_form_a"] <= 1e-10
