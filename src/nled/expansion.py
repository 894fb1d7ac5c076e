"""Numerical small-field Taylor coefficients of a Lagrangian model.

Samples L on seven designed (E, H) configurations that isolate I1, I1^2 and
I2^2 with exact rational geometry (random sampling leaves the design too
ill-conditioned to recover quartic coefficients at the percent level), then
solves the small least-squares system for (c1, c20, c02) in

    L  ~  c1 I1 + c20 I1^2 + c02 I2^2.

Estimates converge to the analytic references at O(scale^2) as the sample
scale shrinks; the sixth-order remainder is the dominant bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IllConditioned, NumericalError
from .kinematics import FieldVectors, invariants
from .models import LagrangianModel, _field_scales, density_from_invariants, polynomial

# Below MIN_SAMPLE_SCALE rounding, which grows as eps/s^2, swamps the quartic
# coefficients (c20 of born-infeld is off by 1e-3 at 1e-6 and by 9 at 1e-8).
MIN_SAMPLE_SCALE = 1e-4
MAX_SAMPLE_SCALE = 0.05
CONDITION_LIMIT = 1e8

# (E direction scale, H vector in units of s).  Rows isolate: pure I1 > 0,
# pure I1 < 0, pure I2 (parallel), the null crossed pair, and three oblique
# mixes with rational I1/I2 ratios.  Deliberately not mirror-symmetric in
# I1: a symmetric design cancels the odd sixth-order bias and would hide
# the O(scale^2) convergence the estimator is specified to have.
_CONFIGS = (
    ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.5, 0.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.25, 0.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.6, 0.8, 0.0)),
)

# Additional oblique pairs that make the sixth-order columns (I1 I2, I1^3,
# I1 I2^2) separable; used only when higher-order estimation is requested so
# the quartic fit keeps the seven-row design above.
_CONFIGS_HIGHER = _CONFIGS + (
    ((1.0, 0.0, 0.0), (0.3, 0.4, 0.0)),
    ((1.0, 0.0, 0.0), (0.6, 0.0, 0.0)),
    ((0.8, 0.0, 0.0), (0.5, 0.0, 0.0)),
)


@dataclass(frozen=True)
class CoefficientEstimate:
    """Least-squares Taylor coefficients with fit diagnostics.

    The sixth-order coefficients (of I1 I2, I1^3, I1 I2^2) are populated
    only when higher-order estimation was requested; the quartic truncation
    ships with them fixed to zero.
    """

    c1_hat: float
    c20_hat: float
    c02_hat: float
    condition: float
    residual: float
    c11_hat: float | None = None
    c30_hat: float | None = None
    c12_hat: float | None = None


def estimate_taylor_coefficients(m: LagrangianModel, sample_scale: float = 0.01,
                                 higher_order: bool = False) -> CoefficientEstimate:
    """Fit (c1, c20, c02) from designed samples at the given scale.

    With ``higher_order`` the design is extended to the sixth-order columns
    (I1 I2, I1^3, I1 I2^2); those estimates are diagnostic only and are not
    fed into the quartic truncation.
    """
    if not (MIN_SAMPLE_SCALE <= sample_scale <= MAX_SAMPLE_SCALE):
        raise ConfigurationError(f"sample_scale must be in [{MIN_SAMPLE_SCALE}, "
                                 f"{MAX_SAMPLE_SCALE}], got {sample_scale}")
    s = sample_scale * min(_field_scales(m), default=1.0)  # of the map's scale, or of unity
    design = np.asarray(_CONFIGS_HIGHER if higher_order else _CONFIGS)
    inv = invariants(FieldVectors(E=design[:, 0], H=design[:, 1]))
    i1, i2 = inv.I1, inv.I2
    # columns at unit scale, the physical ones over powers of s: the condition is O(1)
    columns = [i1, i1**2, i2**2]
    if higher_order:
        columns += [i1 * i2, i1**3, i1 * i2**2]
    M = np.column_stack(columns)
    with np.errstate(over="ignore", invalid="ignore"):  # a sample beyond the doubles
        y = density_from_invariants(m, s * s * i1, s * s * i2)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"{m.kind}: L sampled at s = {float(s)!r}, {sample_scale!r} of the "
                             f"map's scale, is beyond the double range", model_kind=m.kind)
    a, _, _, sv = np.linalg.lstsq(M, y, rcond=None)
    # the condition from the solve's own singular values, not a second SVD
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    if condition > CONDITION_LIMIT:
        raise IllConditioned(
            f"design condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition=condition)
    with np.errstate(all="ignore"):  # s^4 or s^6 alone may leave the doubles
        coefs = a / s**2
        coefs[1:] /= s**2
        coefs[4:] /= s**2
    if not np.all(np.isfinite(coefs)):
        raise NumericalError(f"{m.kind}: a Taylor coefficient at sample scale {sample_scale!r} "
                             f"is beyond the double range", model_kind=m.kind)
    residual = float(np.max(np.abs(M @ a - y)))
    extra = {}
    if higher_order:
        extra = {"c11_hat": float(coefs[3]), "c30_hat": float(coefs[4]),
                 "c12_hat": float(coefs[5])}
    return CoefficientEstimate(c1_hat=float(coefs[0]), c20_hat=float(coefs[1]),
                               c02_hat=float(coefs[2]), condition=condition,
                               residual=residual, **extra)


def polynomial_from_model(m: LagrangianModel,
                          sample_scale: float = 0.01) -> LagrangianModel:
    """Quartic truncation of ``m`` as a polynomial model.

    alpha/beta come from the estimate; the cross and sextic terms are fixed
    to zero (the truncation stops at fourth order).  For fields below
    0.1 E0 the truncation tracks the parent model within the sixth-order
    remainder bound.
    """
    est = estimate_taylor_coefficients(m, sample_scale)
    return polynomial(alpha=est.c20_hat, beta=est.c02_hat)

