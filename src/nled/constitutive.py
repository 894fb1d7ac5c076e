"""The D <-> E constitutive map at H = 0 and its per-radius inversion.

Forward map: D = 4 pi |dL/dE| evaluated at H = 0, which gives

    maxwell           D = E
    born-infeld       D = E / sqrt(1 - E^2/E0^2)        (E < E0)
    log-schroedinger  D = E / (1 + E^2/E0^2)            (max E0/2 at E = E0)
    polynomial        D = E + 16 pi a E^3 + 24 pi x E^5

Inversion is bracketed root refinement on the forward map, never an inverse
formula.  For the bounded-domain (born-infeld) kind the search runs in the
logit of the radicand q = 1 - E^2/E0^2, so the bracket approaches E0 from
below by bisecting the radicand and the solve stays well conditioned across
~150 decades of D; unbounded kinds are solved in log E.  Non-monotone maps
(log-schroedinger) return the lower root, the branch continuously connected
to E = 0, and tag the ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_expit

from .errors import ConvergenceFailure, DomainExceeded, NoSolution, UnsupportedModel
from .kinematics import FOUR_PI
from .models import (BORN_INFELD, LOG_SCHROEDINGER, MAXWELL, MIE_SQRT,
                     POLYNOMIAL, LagrangianModel)

RESIDUAL_TOL = 1e-13       # solve target, relative in D
RESIDUAL_LIMIT = 1e-12     # contract: achieved residual must stay below this

BRANCH_UNIQUE = "unique"
BRANCH_LOWER = "lower-of-two"


@dataclass(frozen=True)
class InversionResult:
    """Solution of D(E) = D_target with solve diagnostics.

    ``coulomb_deviation`` is v = 1 - E/D held at full relative precision
    even where v is many orders below 1 (the far Coulomb tail); recomputing
    it from the rounded E and D would lose it to cancellation, and the
    charge-density differentiation needs it clean.
    """

    E: float
    iterations: int
    residual: float
    branch: str
    coulomb_deviation: float = 0.0


def displacement_from_field(m: LagrangianModel, E):
    """D = 4 pi |dL/dE| at H = 0 for a field magnitude (scalar or array)."""
    E = np.asarray(E, dtype=float)
    scalar = E.ndim == 0
    if np.any(E < 0) or not np.all(np.isfinite(E)):
        raise ValueError(f"field magnitude must be finite and >= 0, got {E}")
    if m.kind == MAXWELL:
        D = E.copy()
    elif m.kind == BORN_INFELD:
        rad = 1.0 - (E / m.E0) ** 2
        if np.any(rad <= 0.0):
            raise DomainExceeded(m.kind, "radicand 1 - E^2/E0^2", float(np.min(rad)))
        D = E / np.sqrt(rad)
    elif m.kind == LOG_SCHROEDINGER:
        D = E / (1.0 + (E / m.E0) ** 2)
    elif m.kind == POLYNOMIAL:
        c = m.coeffs
        D = np.abs(E + 16.0 * np.pi * c.alpha * E**3 + 24.0 * np.pi * c.xi * E**5)
    else:
        raise UnsupportedModel(f"{m.kind} has no constitutive map")
    return float(D) if scalar else D


@dataclass(frozen=True)
class _MapShape:
    monotone: bool
    E_peak: float | None = None
    D_max: float | None = None


def _characteristic_field(m: LagrangianModel) -> float | None:
    """Field scale where the nonlinearity of D(E) becomes order one, or None
    when the map at H = 0 is linear and has no scale."""
    if m.E0 is not None:
        return m.E0
    if m.kind == POLYNOMIAL:
        c = m.coeffs
        if c.alpha != 0.0:
            return 1.0 / np.sqrt(16.0 * np.pi * abs(c.alpha))
        if c.xi != 0.0:
            return (24.0 * np.pi * abs(c.xi)) ** -0.25
    return None


@lru_cache(maxsize=64)
def _map_shape(m: LagrangianModel) -> _MapShape:
    """Monotonicity of D(E), with the peak located for unimodal maps.

    born-infeld and the linear maps (no characteristic field) are increasing
    in closed form; the rest are probed on a geometric grid around the
    characteristic field (assumes the map is unimodal at probe resolution,
    true for the shipped kinds).
    """
    scale = _characteristic_field(m)
    if m.kind == BORN_INFELD or scale is None:
        return _MapShape(monotone=True)
    grid = scale * np.logspace(-9.0, 9.0, 145)
    d = displacement_from_field(m, grid)
    rising = np.diff(d) > 0
    if np.all(rising):
        return _MapShape(monotone=True)
    i = int(np.argmin(rising))  # first decrease: peak in (grid[i-1], grid[i+1])
    lo = grid[i - 1] if i > 0 else grid[0] * 1e-3
    hi = grid[i + 1]
    res = minimize_scalar(lambda E: -displacement_from_field(m, E),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * hi})
    e_peak = float(res.x)
    return _MapShape(monotone=False, E_peak=e_peak,
                     D_max=displacement_from_field(m, e_peak))


def attainable_displacement_max(m: LagrangianModel) -> float:
    """sup of D over the field domain (inf for monotone unbounded maps)."""
    shape = _map_shape(m)
    return np.inf if shape.monotone else shape.D_max


def _coulomb_deviation(m: LagrangianModel, E: float) -> float:
    """v = 1 - E/D(E) without subtractive cancellation (unbounded kinds)."""
    if m.kind == MAXWELL or E == 0.0:
        return 0.0
    if m.kind == LOG_SCHROEDINGER:
        # E/D = 1 + (E/E0)^2 exactly
        return -((E / m.E0) ** 2)
    if m.kind == POLYNOMIAL:
        c = m.coeffs
        extra = 16.0 * np.pi * c.alpha * E**3 + 24.0 * np.pi * c.xi * E**5
        return extra / (E + extra)
    raise UnsupportedModel(f"{m.kind} has no constitutive map")


def _result(m: LagrangianModel, e_root: float, d_target: float,
            iterations: int, branch: str, residual: float,
            deviation: float) -> InversionResult:
    if residual > RESIDUAL_LIMIT:
        raise ConvergenceFailure(
            f"inversion residual {residual:.3e} above {RESIDUAL_LIMIT} "
            f"for {m.kind} at D = {d_target!r}",
            residual=residual, D=d_target)
    return InversionResult(E=e_root, iterations=iterations,
                           residual=residual, branch=branch,
                           coulomb_deviation=deviation)


def _invert_born_infeld(m: LagrangianModel, d_target: float) -> InversionResult:
    # Search variable w is the logit of the radicand: q = 1 - E^2/E0^2 =
    # sigmoid(-w).  The forward map in log form, ln D = ln E0 +
    # (log_expit(w) - log_expit(-w)) / 2, never under/overflows, so the
    # bracket can approach E0 (w -> +inf) or 0 (w -> -inf) safely.
    E0 = m.E0
    ln_target = np.log(d_target)

    def f(w: float) -> float:
        return np.log(E0) + 0.5 * (log_expit(w) - log_expit(-w)) - ln_target

    evals = 1
    f0 = f(0.0)
    step = 1.0
    if f0 == 0.0:
        w_lo = w_hi = 0.0
    elif f0 < 0.0:
        w_lo = 0.0
        while True:
            w_hi = w_lo + step
            evals += 1
            if f(w_hi) >= 0.0:
                break
            w_lo, step = w_hi, step * 2.0
            if step > 2.0**60:
                raise ConvergenceFailure("bracket growth exhausted", D=d_target)
    else:
        w_hi = 0.0
        while True:
            w_lo = w_hi - step
            evals += 1
            if f(w_lo) <= 0.0:
                break
            w_hi, step = w_lo, step * 2.0
            if step > 2.0**60:
                raise ConvergenceFailure("bracket growth exhausted", D=d_target)
    if w_lo == w_hi:
        w, iters = 0.0, 0
    else:
        w, info = brentq(f, w_lo, w_hi, xtol=1e-13, maxiter=200, full_output=True)
        if not info.converged:
            raise ConvergenceFailure(
                f"brentq failed to converge for D = {d_target!r}", D=d_target)
        iters = info.iterations
    e_root = float(E0 * np.exp(0.5 * log_expit(w)))
    residual = abs(np.expm1(f(w)))
    # v = 1 - E/D = 1 - sqrt(q) = (1 - q)/(1 + sqrt(q)), cancellation-free
    one_m_q = np.exp(log_expit(w))
    sqrt_q = np.exp(0.5 * log_expit(-w))
    deviation = float(one_m_q / (1.0 + sqrt_q))
    return _result(m, e_root, d_target, evals + iters, BRANCH_UNIQUE, residual,
                   deviation)


def _invert_log_e(m: LagrangianModel, d_target: float, e_lo: float, e_hi: float,
                  evals: int, branch: str) -> InversionResult:
    def f(y: float) -> float:
        return displacement_from_field(m, np.exp(y)) - d_target

    try:
        y, info = brentq(f, np.log(e_lo), np.log(e_hi), xtol=1e-14,
                         maxiter=200, full_output=True)
    except ValueError as exc:  # no sign change at the ends, or E overflowed
        raise ConvergenceFailure(f"{exc} (log E bracket, D = {d_target!r})",
                                 D=d_target) from None
    if not info.converged:
        raise ConvergenceFailure(f"brentq failed to converge for D = {d_target!r}",
                                 D=d_target)
    e_root = float(np.exp(y))
    residual = abs(displacement_from_field(m, e_root) - d_target) / d_target
    return _result(m, e_root, d_target, evals + info.iterations, branch, residual,
                   _coulomb_deviation(m, e_root))


def _rounds_below_root(m: LagrangianModel, h: float, d_target: float) -> bool:
    """Whether brentq's upper end exp(log(h)) rounds below h and below the
    root; in the far tail, where D(E) - E is under an ulp of E, it can."""
    h_seen = np.exp(np.log(h))
    return h_seen < h and displacement_from_field(m, h_seen) < d_target


def field_from_displacement(m: LagrangianModel, D: float) -> InversionResult:
    """Solve displacement_from_field(m, E) = D for the field magnitude.

    Raises NoSolution (with the attainable maximum) when D is above the range
    of the map, ConvergenceFailure if the residual target cannot be met.
    """
    d_target = float(D)
    if not np.isfinite(d_target) or d_target < 0.0:
        raise ValueError(f"displacement must be finite and >= 0, got {D}")
    if d_target == 0.0:
        return InversionResult(E=0.0, iterations=0, residual=0.0, branch=BRANCH_UNIQUE)
    if m.kind == BORN_INFELD:
        return _invert_born_infeld(m, d_target)
    if m.kind not in (MAXWELL, LOG_SCHROEDINGER, POLYNOMIAL):
        raise UnsupportedModel(f"{m.kind} has no constitutive map")

    shape = _map_shape(m)
    if shape.monotone:
        # Grow the upper end geometrically until the target is covered.
        h = d_target
        evals = 1
        d_h = displacement_from_field(m, h)
        if d_h == d_target:
            return InversionResult(E=h, iterations=evals, residual=0.0,
                                   branch=BRANCH_UNIQUE,
                                   coulomb_deviation=_coulomb_deviation(m, h))
        while d_h < d_target or _rounds_below_root(m, h, d_target):
            h *= 4.0
            evals += 1
            if not np.isfinite(h) or evals > 800:
                raise ConvergenceFailure("bracket growth exhausted", D=d_target)
            d_h = displacement_from_field(m, h)
        e_hi = h
        e_lo = h / 4.0
        while displacement_from_field(m, e_lo) >= d_target:
            e_lo /= 4.0
            evals += 1
            if e_lo < 1e-300:
                raise ConvergenceFailure("bracket shrink exhausted", D=d_target)
        return _invert_log_e(m, d_target, e_lo, e_hi, evals, BRANCH_UNIQUE)

    # Unimodal map: only the rising branch up to the peak carries the
    # physical (weak-field-connected) root.
    if d_target > shape.D_max * (1.0 + 1e-13):
        raise NoSolution(d_target, shape.D_max)
    two_roots = d_target < shape.D_max * (1.0 - 1e-12)
    branch = BRANCH_LOWER if two_roots else BRANCH_UNIQUE
    e_lo = shape.E_peak
    evals = 0
    while displacement_from_field(m, e_lo) >= d_target:
        e_lo /= 4.0
        evals += 1
        if e_lo < 1e-300:
            raise ConvergenceFailure("bracket shrink exhausted", D=d_target)
    return _invert_log_e(m, d_target, e_lo, shape.E_peak, evals, branch)
