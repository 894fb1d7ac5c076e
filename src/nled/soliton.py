"""Radial profiles of the spherically symmetric electron-like solution.

The displacement field is the point-source D(r) = e/r^2; the electric field
comes from the per-radius constitutive inversion; the charge density is the
divergence rho = (1/4 pi r^2) d(r^2 E)/dr taken with high-order finite
differences on the grid; eps = D/E; the potential is the inward integral of
E with the improper tail mapped to a proper integral.

Grids are uniform in log r (default: 400 points over [1e-4, 1e4] r0, r0
being energetics.radial_scale) or in r, so fixed-stencil differences apply
in the uniform coordinate.  r = 0 is never a grid point; the r -> 0 field
limit is attached separately where it exists in closed form (the limiting
field E0 of the bounded model).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import energetics
from .constitutive import attainable_displacement_max, field_from_displacement
from .errors import ConfigurationError, NoSolution
from .kinematics import FOUR_PI
from .models import BORN_INFELD, LagrangianModel
from .quadrature import QuadratureSpec, adaptive_quad, tail_quad

LOG = "log"
LINEAR = "linear"

DEFAULT_POINTS = 400
DEFAULT_SPAN = (1e-4, 1e4)  # in units of r0


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii (cm), uniform in log r or in r."""

    r: np.ndarray
    spacing: str = LOG

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size < 5:
            raise ConfigurationError(
                f"grid needs at least 5 points, got shape {r.shape}")
        if not (r[0] > 0 and np.all(np.diff(r) > 0)):
            raise ConfigurationError("radii must be positive and strictly increasing")
        if self.spacing not in (LOG, LINEAR):
            raise ConfigurationError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        coord = np.log(r) if self.spacing == LOG else r
        steps = np.diff(coord)
        if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
            raise ConfigurationError(f"grid is not uniform in its {self.spacing} coordinate")

    @property
    def n(self) -> int:
        return self.r.size


def log_grid(r_min: float, r_max: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    if not (0 < r_min < r_max):
        raise ConfigurationError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    return RadialGrid(r=np.geomspace(r_min, r_max, points), spacing=LOG)


def linear_grid(r_min: float, r_max: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    if not (0 < r_min < r_max):
        raise ConfigurationError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    return RadialGrid(r=np.linspace(r_min, r_max, points), spacing=LINEAR)


def default_grid(r0: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    return log_grid(DEFAULT_SPAN[0] * r0, DEFAULT_SPAN[1] * r0, points)


# ---------------------------------------------------------------------------
# finite differences on a uniform coordinate

@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple[int, ...]) -> np.ndarray:
    """First-derivative stencil weights (per unit step) for integer offsets."""
    n = len(offsets)
    A = np.array([[float(o) ** p for o in offsets] for p in range(n)])
    rhs = np.zeros(n)
    rhs[1] = 1.0
    return np.linalg.solve(A, rhs)


def _uniform_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """d y/d coord on a uniform grid.

    8th-order stencils when the grid allows (>= 9 points), degrading to 6th
    and 4th order on coarse grids; shifted one-sided stencils of the same
    width near the edges.
    """
    n = y.size
    half = 4 if n >= 9 else (3 if n >= 7 else 2)
    width = 2 * half + 1
    # shifted stencils lose an order of accuracy; widen them by two points
    edge_width = min(width + 2, n)
    out = np.empty_like(y)
    central = _fd_weights(tuple(range(-half, half + 1)))
    for i in range(n):
        if i < half:
            offs = tuple(range(-i, edge_width - i))
        elif i >= n - half:
            offs = tuple(range(-(edge_width - (n - i)), n - i))
        else:
            offs = None
        if offs is None:
            w = central
            sl = y[i - half:i + half + 1]
        else:
            w = _fd_weights(offs)
            sl = y[i + offs[0]:i + offs[-1] + 1]
        out[i] = w @ sl
    return out / h


def grid_derivative(grid: RadialGrid, y: np.ndarray) -> np.ndarray:
    """dy/dr on the grid, differencing in the grid's uniform coordinate."""
    y = np.asarray(y, dtype=float)
    if y.shape != grid.r.shape:
        raise ValueError(f"value shape {y.shape} does not match grid {grid.r.shape}")
    if grid.spacing == LOG:
        t = np.log(grid.r)
        return _uniform_derivative(y, t[1] - t[0]) / grid.r
    return _uniform_derivative(y, grid.r[1] - grid.r[0])


def grid_integral(grid: RadialGrid, y: np.ndarray) -> float:
    """integral of y dr over the grid span (trapezoid in the uniform coord).

    On log grids this is the trapezoid rule in t = ln r applied to y*r; its
    Euler-Maclaurin error terms live at the endpoints, where the radial
    integrands of interest have decayed to a negligible fraction of the peak.
    """
    y = np.asarray(y, dtype=float)
    if grid.spacing == LOG:
        t = np.log(grid.r)
        return float(np.trapezoid(y * grid.r, t))
    return float(np.trapezoid(y, grid.r))


# ---------------------------------------------------------------------------
# profile operations

def displacement_profile(e: float, grid: RadialGrid) -> np.ndarray:
    """Point-source displacement D(r) = e/r^2."""
    if not e > 0:
        raise ConfigurationError(f"charge must be positive, got {e}")
    return e / grid.r**2


def _invert_profile(m: LagrangianModel, e: float,
                    grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(E, v) per grid point, v = 1 - E/D held at full relative precision."""
    D = displacement_profile(e, grid)
    E = np.empty_like(D)
    v = np.empty_like(D)
    for i, d in enumerate(D):
        try:
            res = field_from_displacement(m, d)
        except NoSolution as exc:
            raise NoSolution(exc.d_target, exc.d_max_attainable,
                             radius_cm=float(grid.r[i])) from exc
        E[i] = res.E
        v[i] = res.coulomb_deviation
    return E, v


def field_profile(m: LagrangianModel, e: float, grid: RadialGrid) -> np.ndarray:
    """E(r) from the constitutive inversion of D(r) = e/r^2.

    Propagates NoSolution with the offending radius attached when the model
    cannot support the displacement at some grid point.
    """
    return _invert_profile(m, e, grid)[0]


def _charge_density(e: float, grid: RadialGrid, E: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """rho(r) = (1/4 pi r^2) d(r^2 E)/dr from the inverted (E, v) profile.

    Since r^2 D = e identically, r^2 E = e (1 - v) with v the Coulomb
    deviation, so the derivative is taken per point from whichever of
    (1 - v) and v is held to better relative precision: in the far tail v
    decays like r^-4 and differencing r^2 E directly would lose it below
    the double-precision floor of the constant Coulomb part.
    """
    s = grid.r**2 * E / e
    ds = grid_derivative(grid, s)
    dv = grid_derivative(grid, v)
    deriv = np.where(np.abs(v) < 0.5, -dv, ds) + 0.0  # normalize -0.0
    return e * deriv / (FOUR_PI * grid.r**2)


def charge_density_profile(m: LagrangianModel, e: float,
                           grid: RadialGrid) -> np.ndarray:
    """rho(r) = (1/4 pi r^2) d(r^2 E)/dr by finite differences."""
    return _charge_density(e, grid, *_invert_profile(m, e, grid))


_POTENTIAL_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdiv=100)


def _scaled_field_fn(m: LagrangianModel, e: float, r_unit: float):
    """E as a function of x = r/r_unit, in units of e/r_unit^2."""
    unit = e / r_unit**2

    def f(x: float) -> float:
        return field_from_displacement(m, e / (x * r_unit) ** 2).E / unit

    return f


def potential_profile(m: LagrangianModel, e: float, grid: RadialGrid,
                      spec: QuadratureSpec = _POTENTIAL_SPEC) -> np.ndarray:
    """phi(r_i) = integral of E from r_i to infinity.

    Cumulative inward segment quadrature plus the algebraic tail, which the
    substitution x -> 1/x turns into a proper integral (E ~ e/r^2 far out,
    so the transformed integrand tends to a constant).
    """
    r_unit = energetics.radial_scale(m, e)
    x = grid.r / r_unit
    f = _scaled_field_fn(m, e, r_unit)
    phi = np.empty(grid.n)
    tail, _ = tail_quad(f, x[-1], spec)
    phi[-1] = tail
    for i in range(grid.n - 2, -1, -1):
        seg, _ = adaptive_quad(f, x[i], x[i + 1], spec)
        phi[i] = phi[i + 1] + seg
    return phi * (e / r_unit)


def potential_at(m: LagrangianModel, e: float, r: float,
                 spec: QuadratureSpec = _POTENTIAL_SPEC) -> float:
    """phi(r) for a single radius; r = 0 is allowed when the field limit at
    the center is finite (bounded-field models)."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    r_unit = energetics.radial_scale(m, e)
    f = _scaled_field_fn(m, e, r_unit)
    x = r / r_unit
    x_split = max(1.0, x)
    head, _ = adaptive_quad(f, x, x_split, spec) if x < x_split else (0.0, 0.0)
    tail, _ = tail_quad(f, x_split, spec)
    return (head + tail) * (e / r_unit)


@dataclass(frozen=True)
class SolitonProfile:
    """Aligned radial arrays for one model and charge.

    When the model cannot be inverted below some radius (the log model for
    r < sqrt(2) r0), the arrays cover the valid region only and
    ``inversion_failed_below_r`` carries the boundary radius.
    ``E_center`` is the analytic r -> 0 field limit where one exists.
    """

    grid: RadialGrid
    D: np.ndarray
    E: np.ndarray
    rho: np.ndarray
    eps: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    r0: float
    E0: float | None
    inversion_failed_below_r: float | None = None
    E_center: float | None = None


def compute_profile(m: LagrangianModel, e: float,
                    grid: RadialGrid | None = None) -> SolitonProfile:
    """Assemble the full profile, trimming radii the model cannot support."""
    r0 = energetics.radial_scale(m, e)
    if grid is None:
        grid = default_grid(r0)
    boundary = None
    d_max = attainable_displacement_max(m)
    if np.isfinite(d_max):
        r_fail = np.sqrt(e / d_max)
        if grid.r[0] < r_fail:
            boundary = float(r_fail)
            keep = grid.r > r_fail
            if not np.any(keep) or np.count_nonzero(keep) < 5:
                raise NoSolution(float(e / grid.r[-1] ** 2), d_max,
                                 radius_cm=float(grid.r[-1]),
                                 note="fewer than 5 grid points remain above "
                                      "the inversion boundary")
            grid = RadialGrid(r=grid.r[keep], spacing=grid.spacing)
    E, v = _invert_profile(m, e, grid)
    D = displacement_profile(e, grid)
    rho = _charge_density(e, grid, E, v)
    eps = D / E
    u, _ = energetics._stress_densities(m, E, D)
    phi = potential_profile(m, e, grid)
    return SolitonProfile(
        grid=grid, D=D, E=E, rho=rho, eps=eps, u=u, phi=phi,
        r0=r0, E0=m.E0,
        inversion_failed_below_r=boundary,
        E_center=float(m.E0) if m.kind == BORN_INFELD else None)


def integrated_charge(profile: SolitonProfile) -> float:
    """Total charge from the density profile: integral of rho 4 pi r^2 dr."""
    r = profile.grid.r
    return grid_integral(profile.grid, profile.rho * FOUR_PI * r**2)
