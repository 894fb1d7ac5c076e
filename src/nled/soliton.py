"""Radial profiles of the spherically symmetric electron-like solution.

The displacement field is the point-source D(r) = e/r^2; the electric field
comes from one array inversion of the constitutive map over the grid; the
charge density rho = (1/4 pi r^2) d(r^2 E)/dr is closed form at each point,
from the map's own d ln E/d ln D; eps = D/E.  The potential, the
inward integral of E, is E dr summed on the walk along the inversion's
own search variable (constitutive._walk), which also gives the energy and
stress integrals: it evaluates the explicit forward map D(E) on a fixed
rule, so no quadrature node is inverted and no adaptive quadrature runs.
One builder, energetics._phi_walk, gives phi on the grid and at a single
radius (potential_at); phi(0) walks to the center as the energy integral does.

Grids are uniform in log r (default: 400 points over [1e-4, 1e4] r0, r0
being energetics.radial_scale) or in r; no profile column is differenced.
The stress check integrates too: between neighbouring grid points it sets
the jump in r^2 T_rr against the walk's integral of 2 r T_thth.
r = 0 is never a grid point; the r -> 0 field limit is attached separately
where it exists in closed form (the limiting field E0 of the bounded model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energetics
from .constitutive import _charge_factor, _invert, _walk, attainable_displacement_max
from .errors import ConfigurationError, NoSolution, NumericalError
from .kinematics import FOUR_PI
from .models import BORN_INFELD, LagrangianModel

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
        if not (r[0] > 0 and r[-1] < np.inf and np.all(np.diff(r) > 0)):
            raise ConfigurationError("radii must be positive, finite and strictly increasing")
        if self.spacing not in (LOG, LINEAR):
            raise ConfigurationError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        coord = np.log(r) if self.spacing == LOG else r
        steps = np.diff(coord)
        if not np.all(np.abs(steps - steps[0]) <= 1e-8 * abs(steps[0])):  # NaN fails too
            raise ConfigurationError(f"grid is not uniform in its {self.spacing} coordinate")

    @property
    def n(self) -> int:
        return self.r.size


def log_grid(r_min: float, r_max: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    if not (0 < r_min < r_max < np.inf):
        raise ConfigurationError(f"need 0 < r_min < r_max < inf, got ({r_min}, {r_max})")
    return RadialGrid(r=np.geomspace(r_min, r_max, points), spacing=LOG)


def linear_grid(r_min: float, r_max: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    if not (0 < r_min < r_max < np.inf):
        raise ConfigurationError(f"need 0 < r_min < r_max < inf, got ({r_min}, {r_max})")
    return RadialGrid(r=np.linspace(r_min, r_max, points), spacing=LINEAR)


def default_grid(r0: float, points: int = DEFAULT_POINTS) -> RadialGrid:
    return log_grid(DEFAULT_SPAN[0] * r0, DEFAULT_SPAN[1] * r0, points)


def _invert_profile(m: LagrangianModel, e: float,
                    grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(E, D) per grid point, D = e/r^2 the point source's displacement."""
    if not 0 < e < np.inf:
        raise ConfigurationError(f"charge must be finite and positive, got {e}")
    D = energetics._source_displacement(e, grid.r)
    try:
        E = _invert(m, D)[0]
    except NoSolution as exc:  # the first offending D is the innermost radius
        raise NoSolution(exc.d_target, exc.d_max_attainable,
                         radius_cm=float(grid.r[np.argmax(D == exc.d_target)])) from exc
    return E, D


def field_profile(m: LagrangianModel, e: float, grid: RadialGrid) -> np.ndarray:
    """E(r) from the constitutive inversion of D(r) = e/r^2.

    Propagates NoSolution with the offending radius attached when the model
    cannot support the displacement at some grid point.
    """
    return _invert_profile(m, e, grid)[0]


def _charge_density(m: LagrangianModel, r: np.ndarray, E: np.ndarray,
                    D: np.ndarray) -> np.ndarray:
    """rho = (1/4 pi r^2) d(r^2 E)/dr at points (r, D = e/r^2, E) of the
    profile.  r^2 D = e fixes d ln D/d ln r = -2, so rho = E (1 - d ln E/d ln D)
    /(2 pi r) from each point's own (D, E), with the closed-form factor
    constitutive._charge_factor (0 for a linear map): no grid derivative."""
    return E * _charge_factor(m, E, D) / (2.0 * np.pi * r)


def charge_density_profile(m: LagrangianModel, e: float,
                           grid: RadialGrid) -> np.ndarray:
    """rho(r) = (1/4 pi r^2) d(r^2 E)/dr from one inversion per grid point."""
    return _charge_density(m, grid.r, *_invert_profile(m, e, grid))


def potential_at(m: LagrangianModel, e: float, r: float) -> float:
    """phi(r) for a single radius, the center r = 0 included, on the walk of
    the energy integrals (energetics._radial_walk): Divergent for a center
    that is not integrable, NoSolution with the fold radius inside a fold.
    Where phi(0) is finite, U = (2/3) e phi(0) (Gauss's law and von Laue's
    zero trace)."""
    if not r >= 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return float(energetics._radial_walk(m, e, r or None, phi=True)[0])


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
    model: LagrangianModel
    inversion_failed_below_r: float | None = None
    E_center: float | None = None


def compute_profile(m: LagrangianModel, e: float,
                    grid: RadialGrid | None = None) -> SolitonProfile:
    """Assemble the full profile, trimming radii the model cannot support."""
    r0 = energetics.radial_scale(m, e)
    if not 0.0 < r0 < np.inf:  # e/E_c, or e^2/m_e c^2, beyond the doubles
        raise ConfigurationError(f"{m.kind}: the radial scale r0 = {r0!r} cm at charge {e!r} "
                                 "is not a finite, positive double")
    if grid is None:
        grid = default_grid(r0)
    boundary = None
    d_max = attainable_displacement_max(m)
    if np.isfinite(d_max):
        r_fail = np.sqrt(e / d_max)
        if grid.r[0] < r_fail:
            boundary = float(r_fail)
            keep = grid.r > r_fail
            if np.count_nonzero(keep) < 5:
                with np.errstate(over="ignore", divide="ignore"):  # r^2 may leave the doubles
                    d_first = float(e / grid.r[0] ** 2)
                raise NoSolution(d_first, d_max,
                                 radius_cm=float(grid.r[0]),
                                 note="fewer than 5 grid points remain above "
                                      "the inversion boundary")
            # a tail slice of a checked grid is still uniform: skip re-checking it
            trimmed = object.__new__(RadialGrid)
            trimmed.__dict__.update(r=grid.r[keep], spacing=grid.spacing)
            grid = trimmed
    E, D = _invert_profile(m, e, grid)
    with np.errstate(all="ignore"):  # a column that is not finite raises below
        rho = _charge_density(m, grid.r, E, D)
        eps = D / E
        u, _ = energetics._stress_densities(m, E, D)
        phi = energetics._phi_walk(m, e, D, E)
    columns = {"E": E, "rho": rho, "eps": eps, "u": u, "phi": phi}
    if not np.all(np.isfinite(list(columns.values()))):
        bad = [name for name, a in columns.items() if not np.all(np.isfinite(a))]
        raise NumericalError(f"profile columns {bad} are not finite "
                             "(a field or density overflows the double range)", columns=bad)
    return SolitonProfile(
        grid=grid, D=D, E=E, rho=rho, eps=eps, u=u, phi=phi,
        r0=r0, model=m,
        inversion_failed_below_r=boundary,
        E_center=float(m.E0) if m.kind == BORN_INFELD else None)


def integrated_charge(profile: SolitonProfile) -> float:
    """Total charge from the density profile: integral of rho 4 pi r^2 dr by
    the trapezoid rule in the grid's uniform coordinate.

    On log grids that is t = ln r, with the integrand times r; its
    Euler-Maclaurin error terms live at the endpoints, where rho has decayed
    to a negligible fraction of the peak.
    """
    r = profile.grid.r
    y = profile.rho * FOUR_PI * r**2
    if profile.grid.spacing == LOG:
        return float(np.trapezoid(y * r, np.log(r)))
    return float(np.trapezoid(y, r))


def check_stress_divergence(profile: SolitonProfile) -> float:
    """Max residual of d(r^2 T_rr)/dr = 2 r T_thth = -2 r L between
    neighbouring grid points, in integral form: the jump in r^2 u against
    -int 2 r L dr on the walk (constitutive._walk) anchored at the profile's
    own (D, E).  With r^2 = e/D, 2 r dr = -(e/D) (d ln D/dx) dx along the
    search variable x, so no profile column is differenced.

    Normalized by the largest magnitude of the two terms that must cancel,
    so a fabricated non-conserved profile scores O(1) even when one term
    vanishes identically.  A profile whose E rises outward beyond rounding is
    not on one branch of an ln E kind's map and scores inf; born-infeld's
    walk reads only D.
    """
    m, r, D, E = profile.model, profile.grid.r, profile.D, profile.E
    if m.kind != BORN_INFELD and np.any(E[1:] > E[:-1] * (1.0 + energetics._ROUNDING)):
        return float("inf")
    e = r[0] ** 2 * D[0]

    def integrand(D, E, slope, w):
        L = energetics._stress_densities(m, E, D)[1]
        return (e * (w * (L / D) * slope),)  # e/D overflows in a large charge's tail

    integral = _walk(m, D, E, integrand)[0, 0, :r.size - 1]  # int 2 r L dr per step
    jump = np.diff(r**2 * profile.u)  # T_rr = u
    scale = float(np.max(np.abs(jump) + np.abs(integral)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(jump + integral)) / scale)
