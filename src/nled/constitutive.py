"""The D <-> E constitutive map at H = 0 and its per-radius inversion.

Forward map: D = 4 pi |dL/dE| evaluated at H = 0, which gives

    maxwell           D = E
    born-infeld       D = E / sqrt(1 - E^2/E0^2)        (E < E0)
    log-schroedinger  D = E / (1 + E^2/E0^2)            (max E0/2 at E = E0)
    polynomial        D = E + 16 pi a E^3 + 24 pi x E^5

Inversion is one bracket-and-solve on the forward map, never an inverse
formula: the bracket grows from a start point in doubling steps and brentq
refines it, both in the same search variable.  For the bounded-domain
(born-infeld) kind that variable is the logit of the radicand
q = 1 - E^2/E0^2, so the bracket approaches E0 from below and the solve
stays well conditioned across ~600 decades of D; the other nonlinear kinds
are solved in log E, and linear maps return E = D.  Non-monotone maps
(log-schroedinger) return the lower root, the branch continuously connected
to E = 0, and tag the ambiguity.  The same search variable carries a walk
along the forward map from points already inverted, which needs no further
inversion: the potential and the energy and stress integrals run along it
on one fixed panel rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_expit

from .errors import ConvergenceFailure, DomainExceeded, NoSolution, UnsupportedModel
from .models import BORN_INFELD, LOG_SCHROEDINGER, MAXWELL, POLYNOMIAL, LagrangianModel

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


def _displacement(m: LagrangianModel, E):
    """D(E) at H = 0 for a field magnitude (float or array), unchecked."""
    if m.kind == MAXWELL:
        return E
    if m.kind == BORN_INFELD:
        return E / np.sqrt(1.0 - (E / m.E0) ** 2)
    if m.kind == LOG_SCHROEDINGER:
        return E / (1.0 + (E / m.E0) ** 2)
    if m.kind == POLYNOMIAL:
        c = m.coeffs
        return np.abs(E + 16.0 * np.pi * c.alpha * E**3 + 24.0 * np.pi * c.xi * E**5)
    raise UnsupportedModel(f"{m.kind} has no constitutive map")


def _displacement_slope(m: LagrangianModel, E):
    """d ln D/dx along the search variable x at field E (float or array):
    1/2 in the radicand logit for born-infeld, E D'(E)/D in x = ln E for the
    other kinds."""
    if m.kind == BORN_INFELD:
        return np.full_like(E, 0.5)
    if m.kind == MAXWELL:
        return np.ones_like(E)
    if m.kind == LOG_SCHROEDINGER:
        t = (E / m.E0) ** 2
        return (1.0 - t) / (1.0 + t)
    if m.kind == POLYNOMIAL:
        c = m.coeffs
        a, x = 16.0 * np.pi * c.alpha * E**3, 24.0 * np.pi * c.xi * E**5
        return (E + 3.0 * a + 5.0 * x) / (E + a + x)
    raise UnsupportedModel(f"{m.kind} has no constitutive map")


def _search_walk(m: LagrangianModel, D, E, delta):
    """(D, E, d ln E/dx) at offsets delta along the inversion's search
    variable x from anchor points (D, E) on the forward map.

    Nothing is inverted.  For born-infeld x is the radicand logit w, in which
    ln D = ln E0 + w/2 exactly: a node has D = D_a e^{delta/2},
    E = D E0 / hypot(E0, D) = E0 sqrt(sigmoid(w)) and d ln E/dw = (E/D)^2 / 2.
    The other kinds walk x = ln E: E = E_a e^delta, D from the forward map.
    """
    if m.kind == BORN_INFELD:
        D = D * np.exp(0.5 * delta)
        ratio = m.E0 / np.hypot(m.E0, D)
        return D, D * ratio, 0.5 * ratio**2
    E = E * np.exp(delta)
    return _displacement(m, E), E, np.ones_like(E)


def _search_steps(m: LagrangianModel, D: np.ndarray, E: np.ndarray):
    """Offsets along the search variable from each anchor point (D, E) to the
    one before it, and the height of the last anchor above the
    characteristic field (-inf for a linear map, which has none)."""
    if m.kind == BORN_INFELD:
        return 2.0 * np.log(D[:-1] / D[1:]), 2.0 * np.log(D[-1] / m.E0)
    scale = _characteristic_field(m)
    height = -np.inf if scale is None else np.log(E[-1] / scale)
    return np.log(E[:-1] / E[1:]), height


# The fixed quadrature rule of the walks: Gauss-Legendre panels of width at
# most _PANEL_WIDTH in x over the segments between anchors, which sit every
# _ANCHOR_STEP out to _WALK_DEPTH past the characteristic field, and one
# closing panel in s = e^{k (x - x_end)} beyond the last anchor, where the
# integrand goes as e^{k x}.
_PANEL = np.polynomial.legendre.leggauss(8)
_CLOSING = np.polynomial.legendre.leggauss(24)
_PANEL_WIDTH = 0.5
_ANCHOR_STEP = 2.0
_WALK_DEPTH = 40.0


def _walk_nodes(steps: np.ndarray, k: float, rule=(_PANEL, _CLOSING)):
    """(anchor, offset, weight, segment) of the rule over anchors in falling
    x, segment j running from anchor j + 1 up to anchor j over the width
    steps[j], in ceil(step/_PANEL_WIDTH) equal panels; segment steps.size is
    the closing panel below the last anchor, where the integrand goes as
    e^{k x}.  Every offset is taken from the anchor at the low end of its
    segment."""
    panels = np.ceil(steps / _PANEL_WIDTH).astype(int)
    seg = np.repeat(np.arange(steps.size), panels)
    width = (steps / panels)[seg][:, None]
    start = (np.arange(seg.size) - (np.cumsum(panels) - panels)[seg])[:, None] * width
    (t, w), closing = rule
    d_end, w_end = _closing_nodes(k, closing)
    delta = np.concatenate([(start + 0.5 * width * (t + 1.0)).ravel(), d_end])
    weight = np.concatenate([(0.5 * width * w).ravel(), w_end])
    owner = np.concatenate([np.repeat(seg, t.size), np.full(d_end.size, steps.size)])
    return np.minimum(owner + 1, steps.size), delta, weight, owner


def _closing_nodes(k: float, rule=_CLOSING):
    """(offset, weight) of the closing panel from an anchor to where an
    integrand going as e^{k x} vanishes: below the anchor for k > 0, above
    it for k < 0."""
    s = 0.5 * (rule[0] + 1.0)
    return np.log(s) / k, 0.5 * rule[1] / (abs(k) * s)


def displacement_from_field(m: LagrangianModel, E):
    """D = 4 pi |dL/dE| at H = 0 for a field magnitude (scalar or array)."""
    E = np.array(E, dtype=float)
    if np.any(E < 0) or not np.all(np.isfinite(E)):
        raise ValueError(f"field magnitude must be finite and >= 0, got {E}")
    if m.kind == BORN_INFELD:
        rad = 1.0 - (E / m.E0) ** 2
        if np.any(rad <= 0.0):
            raise DomainExceeded(m.kind, "radicand 1 - E^2/E0^2", float(np.min(rad)))
    D = _displacement(m, E)
    return float(D) if E.ndim == 0 else D


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
    d = _displacement(m, grid)
    rising = np.diff(d) > 0
    if np.all(rising):
        return _MapShape(monotone=True)
    i = int(np.argmin(rising))  # first decrease: peak in (grid[i-1], grid[i+1])
    lo = grid[i - 1] if i > 0 else grid[0] * 1e-3
    hi = grid[i + 1]
    res = minimize_scalar(lambda E: -_displacement(m, E),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * hi})
    e_peak = float(res.x)
    return _MapShape(monotone=False, E_peak=e_peak,
                     D_max=float(_displacement(m, e_peak)))


@lru_cache(maxsize=64)
def _log_field_limit(m: LagrangianModel) -> float:
    """Largest ln E at which the forward map is still finite in double
    precision (the polynomial's E^5 overflows above 4.5e61), by bisection."""
    lo, hi = 0.0, np.log(np.finfo(float).max)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if np.isfinite(_displacement(m, np.exp(mid))):
                lo = mid
            else:
                hi = mid
    return lo


def attainable_displacement_max(m: LagrangianModel) -> float:
    """sup of D over the field domain (inf for monotone unbounded maps)."""
    shape = _map_shape(m)
    return np.inf if shape.monotone else shape.D_max


def _coulomb_deviation(m: LagrangianModel, E: float) -> float:
    """v = 1 - E/D(E) without subtractive cancellation (log-schroedinger and
    polynomial)."""
    if m.kind == LOG_SCHROEDINGER:
        # E/D = 1 + (E/E0)^2 exactly
        return -((E / m.E0) ** 2)
    c = m.coeffs
    extra = 16.0 * np.pi * c.alpha * E**3 + 24.0 * np.pi * c.xi * E**5
    return extra / (E + extra)


def _solve(f, x0: float, x_max: float, xtol: float) -> tuple[float, int]:
    """Root of an increasing f and the number of solver steps taken.

    The bracket grows from x0 toward the root in steps that double, its
    upper end capped at x_max, and is checked in the same variable brentq
    then refines in.
    """
    f0 = f(x0)
    if f0 == 0.0:
        return x0, 1
    up = f0 < 0.0
    near, step, evals = x0, 1.0, 1
    while True:
        far = min(near + step, x_max) if up else near - step
        evals += 1
        f_far = f(far)
        if (f_far >= 0.0 if up else f_far <= 0.0) or far == x_max:
            break
        near, step = far, step * 2.0
        if step > 2.0**60:
            raise ConvergenceFailure("bracket growth exhausted")
    lo, hi = (near, far) if up else (far, near)
    try:
        x, info = brentq(f, lo, hi, xtol=xtol, maxiter=200, full_output=True)
    except ValueError as exc:  # no sign change at the ends
        raise ConvergenceFailure(f"{exc} (bracket [{lo!r}, {hi!r}])") from None
    if not info.converged:
        raise ConvergenceFailure("brentq failed to converge")
    return x, evals + info.iterations


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
    if m.kind not in (MAXWELL, BORN_INFELD, LOG_SCHROEDINGER, POLYNOMIAL):
        raise UnsupportedModel(f"{m.kind} has no constitutive map")
    if _characteristic_field(m) is None:
        return InversionResult(E=d_target, iterations=0, residual=0.0,
                               branch=BRANCH_UNIQUE)

    branch = BRANCH_UNIQUE
    try:
        if m.kind == BORN_INFELD:
            # Search variable w is the logit of the radicand: q = 1 - E^2/E0^2
            # = sigmoid(-w).  The forward map in log form, ln D = ln E0 +
            # (log_expit(w) - log_expit(-w)) / 2, never under/overflows, so
            # the bracket can approach E0 (w -> +inf) or 0 (w -> -inf) safely.
            ln_E0, ln_target = np.log(m.E0), np.log(d_target)

            def f(w: float) -> float:
                return ln_E0 + 0.5 * (log_expit(w) - log_expit(-w)) - ln_target

            w, iterations = _solve(f, 0.0, np.inf, 1e-13)
            e_root = float(m.E0 * np.exp(0.5 * log_expit(w)))
            residual = abs(np.expm1(f(w)))
            # v = 1 - E/D = 1 - sqrt(q) = (1 - q)/(1 + sqrt(q)), cancellation-free
            deviation = float(np.exp(log_expit(w))
                              / (1.0 + np.exp(0.5 * log_expit(-w))))
        else:
            shape = _map_shape(m)
            if shape.monotone:
                y_max = _log_field_limit(m)
            else:
                # Unimodal map: only the rising branch up to the peak carries
                # the physical (weak-field-connected) root.
                if d_target > shape.D_max * (1.0 + 1e-13):
                    raise NoSolution(d_target, shape.D_max)
                if d_target < shape.D_max * (1.0 - 1e-12):
                    branch = BRANCH_LOWER
                y_max = np.log(shape.E_peak)
            if shape.monotone or d_target < shape.D_max:
                y, iterations = _solve(lambda y: _displacement(m, np.exp(y)) - d_target,
                                       min(np.log(d_target), y_max), y_max, 1e-14)
                e_root = float(np.exp(y))
            else:  # the accepted band at or above D_max: the peak is the root
                e_root, iterations = shape.E_peak, 0
            residual = abs(_displacement(m, e_root) - d_target) / d_target
            deviation = _coulomb_deviation(m, e_root)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"{exc} for {m.kind} at D = {d_target!r}",
                                 D=d_target) from None
    if residual > RESIDUAL_LIMIT:
        raise ConvergenceFailure(
            f"inversion residual {residual:.3e} above {RESIDUAL_LIMIT} "
            f"for {m.kind} at D = {d_target!r}",
            residual=residual, D=d_target)
    return InversionResult(E=e_root, iterations=iterations, residual=float(residual),
                           branch=branch, coulomb_deviation=deviation)
