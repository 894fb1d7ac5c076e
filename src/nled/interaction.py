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
from .kinematics import FourPotential, _vec3, boost_four_potential


@dataclass(frozen=True)
class ChargeState:
    """Charge density (esu/cm^3), bulk velocity (cm/s) and total charge."""

    rho: float
    v: np.ndarray
    e: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "e", float(self.e))
        object.__setattr__(self, "v", _vec3(self.v, "v"))
        if not np.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")


def _check_speed(v: np.ndarray, c: float) -> None:
    if float(v @ v) >= c * c:
        raise ValueError(f"|v| must be < c, got |v| = {np.linalg.norm(v)} with c = {c}")


def electrokinetic_potential(phi: float, v, A, c: float) -> float:
    """S_w = phi - (v/c) . A."""
    v = _vec3(v, "v")
    A = _vec3(A, "A")
    _check_speed(v, c)
    return phi - float(v @ A) / c


def interaction_lagrangian_density(s: ChargeState, p: FourPotential,
                                   c: float) -> tuple[float, float]:
    """(form_a, form_b): rho S_w and -(1/c) j_mu A^mu.

    The two are the same quantity algebraically; both are evaluated
    independently (form_b through the explicit component sum with
    j_mu = (i c rho, rho v), A_mu = (i phi, A)) so equality is a checkable
    output, exact to floating-point roundoff.
    """
    _check_speed(s.v, c)
    form_a = s.rho * electrokinetic_potential(p.phi, s.v, p.A, c)
    # j_mu A_mu = (i c rho)(i phi) + rho v . A = -c rho phi + rho v . A
    j4_a4 = -c * s.rho * p.phi + s.rho * float(s.v @ p.A)
    form_b = -j4_a4 / c
    return form_a, form_b


def interaction_energy_momentum(e: float, p: FourPotential,
                                k: PhysicalConstants) -> tuple[float, np.ndarray, float]:
    """(eps_e, p_e, identity_residual).

    eps_e = e phi, p_e = e A / c, and the residual
    |e^2 (A.A - phi^2) - (-eps_e^2 + c^2 |p_e|^2)| is zero by construction;
    it is returned to keep the identity visible as a test artifact.
    """
    eps_e = e * p.phi
    p_e = e * p.A / k.c
    lhs = e**2 * (float(p.A @ p.A) - p.phi**2)
    rhs = -eps_e**2 + k.c**2 * float(p_e @ p_e)
    return eps_e, p_e, abs(lhs - rhs)


def boost_charge_state(s: ChargeState, beta, c: float) -> ChargeState:
    """Boost (rho, v) with rho as the time component of the 4-current.

    rho' = gamma rho (1 - beta . v / c); v follows the velocity-addition
    rule.  Total charge is the Lorentz invariant and is carried unchanged.
    """
    b = _vec3(beta, "beta")
    b2 = float(b @ b)
    if b2 >= 1.0:
        raise ValueError(f"|beta| must be < 1, got |beta| = {np.sqrt(b2)}")
    if b2 == 0.0:
        return s
    _check_speed(s.v, c)
    gamma = 1.0 / np.sqrt(1.0 - b2)
    doppler = 1.0 - float(b @ s.v) / c
    bhat = b / np.sqrt(b2)
    v_par = float(bhat @ s.v) * bhat
    v_perp = s.v - v_par
    v_new = (v_par - b * c + v_perp / gamma) / doppler
    return ChargeState(rho=gamma * s.rho * doppler, v=v_new, e=s.e)


def interaction_suite(states: int = 1_000, seed: int = 0,
                      c: float = 2.9979e10, boost_beta: float = 0.6) -> dict:
    """Randomized residuals of the interaction identities.

    Per state: |form_a - form_b|, the energy-momentum identity residual, and
    the drift of form_a under a boost of magnitude ``boost_beta`` along a
    random direction with the full (rho, v, phi, A) transformation applied.
    All normalized by max(1, |value|).
    """
    rng = np.random.default_rng(seed)
    worst_forms = worst_identity = worst_boost = 0.0
    k = PhysicalConstants(e=4.8032e-10, m_e=9.1094e-28, c=c, preset_name="suite")
    for _ in range(states):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = u * (0.9 * c) * rng.uniform()
        s = ChargeState(rho=rng.uniform(-2, 2), v=v, e=rng.uniform(-2, 2))
        p = FourPotential(phi=rng.uniform(-2, 2), A=rng.uniform(-2, 2, 3))
        form_a, form_b = interaction_lagrangian_density(s, p, c)
        worst_forms = max(worst_forms,
                          abs(form_a - form_b) / max(1.0, abs(form_a)))
        _, _, resid = interaction_energy_momentum(s.e, p, k)
        lhs_scale = abs(s.e**2 * (float(p.A @ p.A) - p.phi**2))
        worst_identity = max(worst_identity, resid / max(1.0, lhs_scale))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        beta = direction * boost_beta
        boosted_a, _ = interaction_lagrangian_density(
            boost_charge_state(s, beta, c), boost_four_potential(p, beta), c)
        worst_boost = max(worst_boost, abs(boosted_a - form_a) / max(1.0, abs(form_a)))
    return {
        "states": states,
        "boost_beta": boost_beta,
        "max_rel_err_forms": float(worst_forms),
        "max_rel_err_energy_momentum_identity": float(worst_identity),
        "max_rel_err_boosted_form_a": float(worst_boost),
    }
