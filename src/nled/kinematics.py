"""Field/potential containers, Lorentz invariants, boosts and the
energy-momentum (Fierz-type) identity.

Invariant conventions (vector form, Gaussian units):

    I1 = E^2 - H^2
    I2 = E . H
    I3 = A . A - phi^2                       (square of the 4-potential)

The tensor-form scalars (1/4) F_{mu nu} F^{mu nu} = -I1/2 and
(1/4) F_{mu nu} F*^{mu nu} = -I2 are scaled aliases of I1, I2 and are not
exposed separately.

The identity checked by ``fierz_identity_sides`` is the corrected squared
form

    (E^2 + H^2)^2 - 4 |E x H|^2  =  (E^2 - H^2)^2 + 4 (E . H)^2,

equivalently (8 pi)^2 (U^2 - c^2 g^2) expressed through I1, I2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


def _vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise ValueError(f"{name} must have shape (3,) or (..., 3), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components: {a}")
    return a


def _real(x, name: str, shape: tuple = ()):
    """A finite scalar as a float, or a stack of them as an array of
    ``shape``, the leading shape of its 3-vectors."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} is not finite: {a}")
    if a.ndim and a.shape != shape:
        raise ValueError(f"{name} of shape {a.shape} does not match the leading shape {shape}")
    return float(a) if a.ndim == 0 else a


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis of 3-vectors or (..., 3) stacks, broadcast.
    Elementwise, so a row gives the same bits alone as in a stack; numpy's
    vecdot calls a dot routine once per row."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, with numpy's cross formula (the same bits)
    but none of its axis moves and casts."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _squared_speed(v: np.ndarray, c: float, name: str):
    """v . v of a velocity or a stack of them, after checking |v| < c."""
    v2 = _dot(v, v)
    if np.any(v2 >= c * c):
        raise ValueError(f"|{name}| must be < {c}, got |{name}| = {np.sqrt(np.max(v2))}")
    return v2


def _beta(beta):
    """(beta, beta^2, gamma) of a boost velocity in units of c, or a stack of them."""
    b = _vec3(beta, "beta")
    b2 = _squared_speed(b, 1.0, "beta")
    return b, b2, 1.0 / np.sqrt(1.0 - b2)


@dataclass(frozen=True)
class FieldVectors:
    """Electric and magnetic field 3-vectors (statvolt/cm, gauss), or stacks
    of them, shape (..., 3)."""

    E: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "E", _vec3(self.E, "E"))
        object.__setattr__(self, "H", _vec3(self.H, "H"))


@dataclass(frozen=True)
class FourPotential:
    """Scalar potential phi (statvolt) and vector potential A (gauss cm), or
    stacks of them: phi of shape (...), A of shape (..., 3)."""

    phi: float | np.ndarray
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _vec3(self.A, "A"))
        object.__setattr__(self, "phi", _real(self.phi, "phi", self.A.shape[:-1]))


@dataclass(frozen=True)
class InvariantSet:
    """The invariants, scalars or stacks; I3 is None when no potential was
    supplied."""

    I1: float | np.ndarray
    I2: float | np.ndarray
    I3: float | np.ndarray | None = None


def invariants(F: FieldVectors, A: FourPotential | None = None) -> InvariantSet:
    """Evaluate I1, I2 (and I3 when a four-potential is given)."""
    E, H = F.E, F.H
    i1 = _dot(E, E) - _dot(H, H)
    i2 = _dot(E, H)
    if A is None:
        return InvariantSet(I1=i1, I2=i2)
    return InvariantSet(I1=i1, I2=i2, I3=_dot(A.A, A.A) - A.phi**2)


def fierz_identity_sides(F: FieldVectors) -> tuple[float, float]:
    """Both sides of the corrected quadratic identity.

    lhs = (E^2 + H^2)^2 - 4 |E x H|^2,  rhs = (E^2 - H^2)^2 + 4 (E.H)^2.
    The two agree identically; returning both makes the check a test artifact.
    """
    E, H = F.E, F.H
    e2, h2 = _dot(E, E), _dot(H, H)
    cross = _cross(E, H)
    lhs = (e2 + h2) ** 2 - 4.0 * _dot(cross, cross)
    rhs = (e2 - h2) ** 2 + 4.0 * _dot(E, H) ** 2
    return lhs, rhs


def energy_momentum_density(F: FieldVectors, c: float) -> tuple[float, np.ndarray]:
    """Energy density U = (E^2+H^2)/8pi and momentum density g = (E x H)/(4 pi c).

    (8 pi)^2 (U^2 - c^2 |g|^2) equals the left Fierz side by construction.
    """
    E, H = F.E, F.H
    U = (_dot(E, E) + _dot(H, H)) / EIGHT_PI
    g = _cross(E, H) / (FOUR_PI * c)
    return U, g


def boost(F: FieldVectors, beta) -> FieldVectors:
    """Boost the field pair by velocity ``beta`` (units of c), |beta| < 1.

    Components parallel to beta are unchanged; transverse components mix:
    E'_perp = gamma (E + beta x H)_perp, H'_perp = gamma (H - beta x E)_perp.
    """
    b, _, gamma = _beta(beta)
    E, H = F.E, F.H
    # gamma^2/(gamma+1) = (gamma-1)/beta^2 without cancellation at small beta
    gamma, k = gamma[..., None], (gamma**2 / (gamma + 1.0))[..., None]
    Ep = gamma * (E + _cross(b, H)) - k * b * _dot(b, E)[..., None]
    Hp = gamma * (H - _cross(b, E)) - k * b * _dot(b, H)[..., None]
    return FieldVectors(E=Ep, H=Hp)


def boost_four_potential(p: FourPotential, beta) -> FourPotential:
    """Boost the 4-potential (phi, A) as a 4-vector."""
    b, b2, gamma = _beta(beta)
    k = (gamma - 1.0) / np.where(b2 > 0.0, b2, 1.0)  # 0 at beta = 0
    bA = _dot(b, p.A)
    phi_p = gamma * (p.phi - bA)
    A_p = p.A + (k * bA - gamma * p.phi)[..., None] * b
    return FourPotential(phi=phi_p, A=A_p)


def gauge_shift(p: FourPotential, grad_chi, dchi_dct: float) -> FourPotential:
    """Apply the gauge transformation generated by a chi linear in (x, ct).

    phi -> phi - d(chi)/d(ct),  A -> A + grad(chi).  Linear chi keeps the
    gradients exact, so gauge (non-)invariance checks carry no FD noise.
    """
    g = _vec3(grad_chi, "grad_chi")
    return FourPotential(phi=p.phi - dchi_dct, A=p.A + g)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(_dot(v, v))[..., None]


# ---------------------------------------------------------------------------
# randomized verification suites (shared by the test suite and the CLI); each
# draws its stack and makes one call per formula

def _require_count(name: str, n: int) -> None:
    """ConfigurationError unless a sweep draws at least one state: the maxima
    of an empty sweep would read a clean-looking 0."""
    if not n >= 1:
        raise ConfigurationError(f"{name} must be at least 1, got {n!r}")


def fierz_suite(draws: int = 10_000, seed: int = 0) -> dict:
    """Max relative lhs/rhs discrepancy over random fields in [-1, 1]^6."""
    _require_count("draws", draws)
    E, H = np.random.default_rng(seed).uniform(-1, 1, (draws, 2, 3)).transpose(1, 0, 2)
    lhs, rhs = fierz_identity_sides(FieldVectors(E=E, H=H))
    worst = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))
    return {"draws": draws, "max_rel_err_fierz": float(worst)}


def boost_invariance_suite(draws: int = 1_000, seed: int = 0,
                           beta_max: float = 0.9) -> dict:
    """Max drift of I1, I2 under random boosts with |beta| <= beta_max.

    Blocks drawn in turn: uniform(-1, 1, (draws, 2, 3)) for E and H,
    normal(size=(draws, 3)) for the directions, uniform(size=draws) for the
    radii.  Drift is measured relative to the field scale E^2 + H^2 (the
    invariants themselves can vanish).
    """
    _require_count("draws", draws)
    rng = np.random.default_rng(seed)
    E, H = rng.uniform(-1, 1, (draws, 2, 3)).transpose(1, 0, 2)
    direction, radius = rng.normal(size=(draws, 3)), np.cbrt(rng.uniform(size=draws))[:, None]
    F = FieldVectors(E=E, H=H)
    before = invariants(F)
    after = invariants(boost(F, _unit(direction) * beta_max * radius))
    scale = _dot(E, E) + _dot(H, H)
    worst = np.max(np.abs([after.I1 - before.I1, after.I2 - before.I2]) / scale)
    return {"draws": draws, "beta_max": beta_max, "max_rel_err_boost": float(worst)}
