import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ChargeState, FourPotential, PhysicalConstants, boost_charge_state,
                  boost_four_potential, constants, electrokinetic_potential,
                  interaction_energy_momentum, interaction_lagrangian_density)
from nled import interaction
from nled.interaction import interaction_suite
from nled.kinematics import _dot, _unit

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


def interaction_per_state(states, seed, c=2.9979e10, boost_beta=0.6):
    """The suite's blocks, evaluated one state at a time with the scalar calls:
    the three worst residuals and each state's boost arguments
    (rho, v, e, phi, A, beta)."""
    rng = np.random.default_rng(seed)
    us = rng.normal(size=(states, 3))
    As = rng.uniform(-2, 2, (states, 3))
    directions = rng.normal(size=(states, 3))
    speeds = rng.uniform(size=states)
    rhos, es, phis = rng.uniform(-2, 2, (3, states))
    worst_forms = worst_identity = worst_boost = 0.0
    rows = []
    k = PhysicalConstants(e=4.8032e-10, m_e=9.1094e-28, c=c, preset_name="suite")
    for u, A, direction, speed, rho, e, phi in zip(us, As, directions, speeds, rhos, es, phis):
        v = _unit(u) * (0.9 * c) * speed
        s = ChargeState(rho=rho, v=v, e=e)
        p = FourPotential(phi=phi, A=A)
        form_a, form_b = interaction_lagrangian_density(s, p, c)
        worst_forms = max(worst_forms, abs(form_a - form_b) / max(1.0, abs(form_a)))
        _, _, resid = interaction_energy_momentum(s.e, p, k)
        lhs_scale = abs(s.e**2 * (float(_dot(p.A, p.A)) - p.phi**2))
        worst_identity = max(worst_identity, resid / max(1.0, lhs_scale))
        beta = _unit(direction) * boost_beta
        rows.append((rho, v, e, phi, A, beta))
        boosted_a, _ = interaction_lagrangian_density(
            boost_charge_state(s, beta, c), boost_four_potential(p, beta), c)
        worst_boost = max(worst_boost, abs(boosted_a - form_a) / max(1.0, abs(form_a)))
    return (worst_forms, worst_identity, worst_boost), rows


class TestStacks:
    """The public functions take stacks; the suite makes one call per
    formula on the whole stack."""

    @pytest.mark.parametrize("states, seed", [*((1000, s) for s in (0, 2, 5, 27, 38)), (1, 0)],
                             ids=["0", "2", "5", "27", "38", "states=1"])
    def test_suite_equals_per_state_calls(self, states, seed, recorded):
        charges = recorded(interaction, "boost_charge_state")
        potentials = recorded(interaction, "boost_four_potential")
        rep = interaction_suite(states=states, seed=seed, c=C)
        want, rows = interaction_per_state(states, seed, c=C)
        assert (rep["max_rel_err_forms"], rep["max_rel_err_energy_momentum_identity"],
                rep["max_rel_err_boosted_form_a"]) == want
        [(s, beta, c)], [(p, beta_p)] = charges, potentials
        assert c == C and beta_p.tolist() == beta.tolist()
        # the stacked arguments, row by row and bit for bit
        got = [[a[i].tolist() for a in (s.rho, s.v, s.e, p.phi, p.A, beta)]
               for i in range(states)]
        assert got == [[np.asarray(a).tolist() for a in row] for row in rows]

    def test_suite_draws_blocks(self, generator_calls):
        few = generator_calls(lambda: interaction_suite(states=10, c=C))
        assert few and generator_calls(lambda: interaction_suite(states=1000, c=C)) == few

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(23)
        rho, e, phi = rng.uniform(-2, 2, (3, 40))
        v = rng.uniform(-0.5, 0.5, (40, 3)) * C
        A, beta = rng.uniform(-2, 2, (40, 3)), rng.uniform(-0.5, 0.5, (40, 3))
        beta[7] = 0.0
        s, p = ChargeState(rho=rho, v=v, e=e), FourPotential(phi=phi, A=A)
        forms = interaction_lagrangian_density(s, p, C)
        eps, p_e, resid = interaction_energy_momentum(e, p, K)
        moved = boost_charge_state(s, beta, C)
        for i in range(40):
            si, pi = ChargeState(rho=rho[i], v=v[i], e=e[i]), FourPotential(phi=phi[i], A=A[i])
            assert_allclose([f[i] for f in forms], interaction_lagrangian_density(si, pi, C),
                            rtol=1e-14)
            want = interaction_energy_momentum(e[i], pi, K)
            assert_allclose(eps[i], want[0], rtol=1e-15)
            assert_allclose(p_e[i], want[1], rtol=1e-15)
            assert_allclose(resid[i], want[2], rtol=1e-12, atol=1e-14)
            one = boost_charge_state(si, beta[i], C)
            assert_allclose(moved.rho[i], one.rho, rtol=1e-14)
            assert_allclose(moved.v[i], one.v, rtol=1e-14, atol=1e-15 * C)
        assert moved.rho[7] == rho[7] and moved.v[7].tolist() == v[7].tolist()

    def test_superluminal_entry_rejects_stack(self):
        beta = np.zeros((5, 3))
        beta[1] = (0.0, 0.0, -1.5)
        s = ChargeState(rho=np.ones(5), v=np.zeros((5, 3)), e=np.ones(5))
        with pytest.raises(ValueError, match="beta"):
            boost_charge_state(s, beta, C)
        v = np.zeros((5, 3))
        v[4] = (0.0, C, 0.0)
        with pytest.raises(ValueError, match=r"\|v\|"):
            boost_charge_state(ChargeState(rho=np.ones(5), v=v, e=np.ones(5)), 0.1 * beta, C)

    @pytest.mark.parametrize("field", ["rho", "v", "e"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_entry_rejects_stack(self, field, value):
        kwargs = {"rho": np.ones(4), "v": np.zeros((4, 3)), "e": np.ones(4)}
        kwargs[field] = kwargs[field].copy()
        kwargs[field][2] = value
        with pytest.raises(ValueError, match="finite"):
            ChargeState(**kwargs)

    @pytest.mark.parametrize("shape", [(), (4,), (4, 2), (4, 4)])
    def test_trailing_axis_must_be_three(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ChargeState(rho=1.0, v=np.zeros(shape), e=1.0)
        with pytest.raises(ValueError, match="shape"):
            boost_charge_state(ChargeState(rho=1.0, v=(0, 0, 0), e=1.0),
                               np.full(shape, 0.1), C)

    @pytest.mark.parametrize("field", ["rho", "e"])
    def test_scalars_must_match_leading_shape_of_v(self, field):
        kwargs = {"rho": 1.0, "v": np.zeros(3), "e": 1.0, field: np.ones(5)}
        with pytest.raises(ValueError, match="leading shape"):
            ChargeState(**kwargs)
