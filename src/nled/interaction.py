"""Current-potential interaction quantities and their exact cross-form
identities.

The interaction Lagrangian density of a moving charge density is written in
two forms that must agree identically,

    form_a = rho (phi - v . A / c)            (charge times the
                                               electrokinetic potential)
    form_b = -(1/c) j_mu A^mu                 (4-current contraction with
                                               j_mu = (i c rho, rho v))

and the interaction energy/momentum pair eps_e = e phi, p_e = e A / c
satisfies e^2 (A.A - phi^2) = -eps_e^2 + c^2 |p_e|^2 by construction.  Both
identities are returned as explicit residuals so they live in the test
surface rather than being silently assumed.  form_a is a Lorentz scalar when
rho transforms as the time component of the current 4-vector,
rho' = gamma rho (1 - beta . v / c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .kinematics import (FourPotential, _beta, _dot, _real, _require_count, _squared_speed,
                         _unit, _vec3, boost_four_potential)


@dataclass(frozen=True)
class ChargeState:
    """Charge density (esu/cm^3), bulk velocity (cm/s) and total charge, or
    stacks of them: rho and e of shape (...), v of shape (..., 3)."""

    rho: float | np.ndarray
    v: np.ndarray
    e: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _vec3(self.v, "v"))
        object.__setattr__(self, "rho", _real(self.rho, "rho", self.v.shape[:-1]))
        object.__setattr__(self, "e", _real(self.e, "e", self.v.shape[:-1]))


def electrokinetic_potential(phi: float, v, A, c: float) -> float:
    """S_w = phi - (v/c) . A."""
    v = _vec3(v, "v")
    A = _vec3(A, "A")
    _squared_speed(v, c, "v")
    return phi - _dot(v, A) / c


def interaction_lagrangian_density(s: ChargeState, p: FourPotential,
                                   c: float) -> tuple[float, float]:
    """(form_a, form_b): rho S_w and -(1/c) j_mu A^mu.

    The two are the same quantity algebraically; both are evaluated
    independently (form_b through the explicit component sum with
    j_mu = (i c rho, rho v), A_mu = (i phi, A)) so equality is a checkable
    output, exact to floating-point roundoff.
    """
    form_a = s.rho * electrokinetic_potential(p.phi, s.v, p.A, c)
    # j_mu A_mu = (i c rho)(i phi) + rho v . A = -c rho phi + rho v . A
    j4_a4 = -c * s.rho * p.phi + s.rho * _dot(s.v, p.A)
    return form_a, -j4_a4 / c


def interaction_energy_momentum(e: float, p: FourPotential,
                                k: PhysicalConstants) -> tuple[float, np.ndarray, float]:
    """(eps_e, p_e, identity_residual).

    eps_e = e phi, p_e = e A / c, and the residual
    |e^2 (A.A - phi^2) - (-eps_e^2 + c^2 |p_e|^2)| is zero by construction;
    it is returned to keep the identity visible as a test artifact.
    """
    eps_e = e * p.phi
    p_e = np.expand_dims(e, -1) * p.A / k.c
    lhs = e**2 * (_dot(p.A, p.A) - p.phi**2)
    rhs = -eps_e**2 + k.c**2 * _dot(p_e, p_e)
    return eps_e, p_e, abs(lhs - rhs)


def boost_charge_state(s: ChargeState, beta, c: float) -> ChargeState:
    """Boost (rho, v) with rho as the time component of the 4-current.

    rho' = gamma rho (1 - beta . v / c); v follows the velocity-addition
    rule.  Total charge is the Lorentz invariant and is carried unchanged.
    """
    b, b2, gamma = _beta(beta)
    _squared_speed(s.v, c, "v")
    doppler = 1.0 - _dot(b, s.v) / c
    bhat = b / np.sqrt(np.where(b2 > 0.0, b2, 1.0))[..., None]  # 0 at beta = 0
    v_par = _dot(bhat, s.v)[..., None] * bhat
    v_new = (v_par - b * c + (s.v - v_par) / gamma[..., None]) / doppler[..., None]
    return ChargeState(rho=gamma * s.rho * doppler, v=v_new, e=s.e)


def interaction_suite(states: int = 1_000, seed: int = 0,
                      c: float = 2.9979e10, boost_beta: float = 0.6) -> dict:
    """Randomized residuals of the interaction identities.

    Per state: |form_a - form_b|, the energy-momentum identity residual, and
    the drift of form_a under a boost of magnitude ``boost_beta`` along a
    random direction with the full (rho, v, phi, A) transformation applied.
    All normalized by max(1, |value|).  Blocks drawn in turn: the velocity
    directions u, normal (states, 3); A, uniform(-2, 2) (states, 3); the boost
    directions, normal (states, 3); the speeds in units of 0.9 c, uniform
    (states,); and (rho, e, phi), uniform(-2, 2) (3, states).
    """
    _require_count("states", states)
    rng = np.random.default_rng(seed)
    u, A = rng.normal(size=(states, 3)), rng.uniform(-2, 2, (states, 3))
    direction, speed = rng.normal(size=(states, 3)), rng.uniform(size=states)
    rho, e, phi = rng.uniform(-2, 2, (3, states))
    k = PhysicalConstants(e=4.8032e-10, m_e=9.1094e-28, c=c, preset_name="suite")
    s = ChargeState(rho=rho, v=_unit(u) * (0.9 * c) * speed[:, None], e=e)
    p = FourPotential(phi=phi, A=A)
    form_a, form_b = interaction_lagrangian_density(s, p, c)
    scale = np.maximum(1.0, np.abs(form_a))
    _, _, resid = interaction_energy_momentum(s.e, p, k)
    lhs_scale = np.abs(s.e**2 * (_dot(p.A, p.A) - p.phi**2))
    beta = _unit(direction) * boost_beta
    boosted_a, _ = interaction_lagrangian_density(
        boost_charge_state(s, beta, c), boost_four_potential(p, beta), c)
    identity = resid / np.maximum(1.0, lhs_scale)
    return {
        "states": states,
        "boost_beta": boost_beta,
        "max_rel_err_forms": float(np.max(np.abs(form_a - form_b) / scale)),
        "max_rel_err_energy_momentum_identity": float(np.max(identity)),
        "max_rel_err_boosted_form_a": float(np.max(np.abs(boosted_a - form_a) / scale)),
    }
