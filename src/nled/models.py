"""Registry of nonlinear Lagrangian densities L(I1, I2) with analytic first
derivatives and small-field Taylor references.

Supported kinds (weak-field limit normalized to +I1/8pi in every case):

    maxwell           L = I1 / 8pi
    born-infeld       L = (E0^2/4pi) (1 - sqrt(1 - I1/E0^2 - I2^2/E0^4))
    log-schroedinger  L = (E0^2/8pi) ln(1 + I1/E0^2)
    polynomial        L = I1/8pi + a I1^2 + b I2^2 + g I1 I2 + x I1^3 + z I1 I2^2
    mie-sqrt          L = s sqrt(|I3|), s = +-1; potential-bearing, symbolic
                      only (no constitutive map, no Taylor data)

The born-infeld radicand is evaluated as 1 - u with u = I1/E0^2 + I2^2/E0^4
and the density as u / (1 + sqrt(1 - u)), which is algebraically identical to
1 - sqrt(1 - u) but free of cancellation at small fields; the log model uses
log1p.  Leaving the model domain (radicand < 0, log argument <= 0) raises
DomainExceeded rather than clamping: the boundary is the limiting field and
silent clamping would corrupt downstream quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainExceeded, UnsupportedModel
from .kinematics import FOUR_PI, EIGHT_PI, FieldVectors, FourPotential, invariants

MAXWELL = "maxwell"
BORN_INFELD = "born-infeld"
LOG_SCHROEDINGER = "log-schroedinger"
POLYNOMIAL = "polynomial"
MIE_SQRT = "mie-sqrt"

_E0_KINDS = (BORN_INFELD, LOG_SCHROEDINGER)
KINDS = (MAXWELL, BORN_INFELD, LOG_SCHROEDINGER, POLYNOMIAL, MIE_SQRT)


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Expansion coefficients of the quartic/sextic interaction terms."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    xi: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.xi, self.zeta)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError(f"polynomial coefficients must be finite: {vals}")


@dataclass(frozen=True)
class LagrangianModel:
    """Tagged immutable model descriptor."""

    kind: str
    E0: float | None = None
    coeffs: PolynomialCoeffs | None = None
    mie_sign: int = +1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}; choose one of {KINDS}")
        if self.kind in _E0_KINDS:
            if self.E0 is None or not (self.E0 > 0):
                raise ConfigurationError(f"{self.kind} requires a limiting field E0 > 0, got {self.E0}")
        elif self.E0 is not None:
            raise ConfigurationError(f"{self.kind} takes no limiting field, got E0 = {self.E0}")
        if self.kind == POLYNOMIAL and self.coeffs is None:
            object.__setattr__(self, "coeffs", PolynomialCoeffs())
        if self.mie_sign not in (+1, -1):
            raise ConfigurationError(f"mie_sign must be +1 or -1, got {self.mie_sign}")


def maxwell() -> LagrangianModel:
    return LagrangianModel(kind=MAXWELL)


def born_infeld(E0: float) -> LagrangianModel:
    return LagrangianModel(kind=BORN_INFELD, E0=E0)


def log_schroedinger(E0: float) -> LagrangianModel:
    return LagrangianModel(kind=LOG_SCHROEDINGER, E0=E0)


def polynomial(alpha: float = 0.0, beta: float = 0.0, gamma: float = 0.0,
               xi: float = 0.0, zeta: float = 0.0) -> LagrangianModel:
    return LagrangianModel(
        kind=POLYNOMIAL,
        coeffs=PolynomialCoeffs(alpha=alpha, beta=beta, gamma=gamma, xi=xi, zeta=zeta))


def mie_sqrt(sign: int = +1) -> LagrangianModel:
    return LagrangianModel(kind=MIE_SQRT, mie_sign=sign)


@dataclass(frozen=True)
class TaylorReference:
    """Analytic small-field coefficients: L ~ c1 I1 + c20 I1^2 + c02 I2^2."""

    c1: float
    c20: float
    c02: float


def _bi_radicand(m: LagrangianModel, i1, i2):
    u = i1 / m.E0**2 + (i2 / m.E0**2) ** 2
    rad = 1.0 - u
    if np.any(rad < 0.0):
        raise DomainExceeded(m.kind, "radicand 1 - I1/E0^2 - I2^2/E0^4",
                             float(np.min(rad)))
    return rad


def density_from_invariants(m: LagrangianModel, i1, i2):
    """L(I1, I2) for the field-strength kinds; scalar or array arguments."""
    i1 = np.asarray(i1, dtype=float)
    i2 = np.asarray(i2, dtype=float)
    scalar = i1.ndim == 0 and i2.ndim == 0
    if m.kind == MAXWELL:
        out = i1 / EIGHT_PI
    elif m.kind == BORN_INFELD:
        u = i1 / m.E0**2 + (i2 / m.E0**2) ** 2
        rad = _bi_radicand(m, i1, i2)
        out = (m.E0**2 / FOUR_PI) * u / (1.0 + np.sqrt(rad))
    elif m.kind == LOG_SCHROEDINGER:
        arg = i1 / m.E0**2
        if np.any(arg <= -1.0):
            raise DomainExceeded(m.kind, "argument 1 + I1/E0^2", float(1.0 + np.min(arg)))
        out = (m.E0**2 / EIGHT_PI) * np.log1p(arg)
    elif m.kind == POLYNOMIAL:
        c = m.coeffs
        out = (i1 / EIGHT_PI + c.alpha * i1**2 + c.beta * i2**2 + c.gamma * i1 * i2
               + c.xi * i1**3 + c.zeta * i1 * i2**2)
    else:
        raise UnsupportedModel(f"{m.kind} is not a function of (I1, I2)")
    return float(out) if scalar else out


def lagrangian_density(m: LagrangianModel, F: FieldVectors,
                       A: FourPotential | None = None) -> float:
    """Lagrangian density (erg/cm^3) at the given field state.

    The mie-sqrt kind depends on the potential invariant I3 only and needs
    ``A``; all other kinds ignore ``A``.
    """
    if m.kind == MIE_SQRT:
        if A is None:
            raise ConfigurationError("mie-sqrt density requires a four-potential")
        inv = invariants(F, A)
        return m.mie_sign * float(np.sqrt(abs(inv.I3)))
    inv = invariants(F)
    return density_from_invariants(m, inv.I1, inv.I2)


def _dL_dI(m: LagrangianModel, i1: float, i2: float) -> tuple[float, float]:
    """(dL/dI1, dL/dI2); strict interior of the model domain required."""
    if m.kind == MAXWELL:
        return 1.0 / EIGHT_PI, 0.0
    if m.kind == BORN_INFELD:
        rad = _bi_radicand(m, i1, i2)
        if rad == 0.0:
            raise DomainExceeded(m.kind, "radicand 1 - I1/E0^2 - I2^2/E0^4", rad)
        s = 1.0 / np.sqrt(rad)
        return s / EIGHT_PI, s * i2 / (FOUR_PI * m.E0**2)
    if m.kind == LOG_SCHROEDINGER:
        arg = i1 / m.E0**2
        if arg <= -1.0:
            raise DomainExceeded(m.kind, "argument 1 + I1/E0^2", 1.0 + arg)
        return 1.0 / (EIGHT_PI * (1.0 + arg)), 0.0
    if m.kind == POLYNOMIAL:
        c = m.coeffs
        d1 = 1.0 / EIGHT_PI + 2.0 * c.alpha * i1 + c.gamma * i2 + 3.0 * c.xi * i1**2 + c.zeta * i2**2
        d2 = 2.0 * c.beta * i2 + c.gamma * i1 + 2.0 * c.zeta * i1 * i2
        return d1, d2
    raise UnsupportedModel(f"{m.kind} has no field-gradient structure")


def dL_dE(m: LagrangianModel, F: FieldVectors) -> np.ndarray:
    """Analytic gradient of L with respect to the electric field vector.

    dL/dE = 2 (dL/dI1) E + (dL/dI2) H.
    """
    inv = invariants(F)
    d1, d2 = _dL_dI(m, inv.I1, inv.I2)
    return 2.0 * d1 * F.E + d2 * F.H


def taylor_reference(m: LagrangianModel) -> TaylorReference:
    """Analytic (c1, c20, c02) of the small-field expansion."""
    if m.kind == MAXWELL:
        return TaylorReference(c1=1.0 / EIGHT_PI, c20=0.0, c02=0.0)
    if m.kind == BORN_INFELD:
        return TaylorReference(
            c1=1.0 / EIGHT_PI,
            c20=1.0 / (32.0 * np.pi * m.E0**2),
            c02=1.0 / (EIGHT_PI * m.E0**2))
    if m.kind == LOG_SCHROEDINGER:
        return TaylorReference(
            c1=1.0 / EIGHT_PI,
            c20=-1.0 / (16.0 * np.pi * m.E0**2),
            c02=0.0)
    if m.kind == POLYNOMIAL:
        return TaylorReference(c1=1.0 / EIGHT_PI, c20=m.coeffs.alpha, c02=m.coeffs.beta)
    raise UnsupportedModel(f"{m.kind} has no Taylor expansion in (I1, I2)")


def model_from_config(spec: dict) -> LagrangianModel:
    """Build a model from its CLI/JSON descriptor, e.g.
    {"kind": "born-infeld", "E0": 9.18e15} or
    {"kind": "polynomial", "coeffs": {"alpha": ..., "beta": ...}}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"model spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    known = {"kind", "E0", "coeffs", "mie_sign"}
    extra = set(spec) - known
    if extra:
        raise ConfigurationError(f"unknown model spec keys {sorted(extra)}")
    coeffs = None
    if spec.get("coeffs") is not None:
        try:
            coeffs = PolynomialCoeffs(**spec["coeffs"])
        except TypeError as exc:
            raise ConfigurationError(f"bad polynomial coeffs {spec['coeffs']!r}: {exc}") from None
    return LagrangianModel(
        kind=kind,
        E0=spec.get("E0"),
        coeffs=coeffs,
        mie_sign=int(spec.get("mie_sign", +1)))
