"""Total self-energy, von Laue stress integrals, effective-radius
conventions and the radial stress-conservation check.

For a static spherical solution the stress components are

    T_rr            = E dL/dE - L   (the energy density u at H = 0)
    T_theta,theta   = T_phi,phi = -L

and the stability statement is the vanishing of the volume integral of the
spatial trace, integral of (E D / 4 pi - 3 L) 4 pi r^2 dr.  For the
limiting-field model the trace integrand has the exact antiderivative
x sqrt(1 + x^4) - x^3 (x = r/r0), which telescopes to zero at both limits,
so the numeric trace must vanish to quadrature accuracy; for the linear
theory with an inner cutoff it equals -U(r_c), the classical instability
that historically had to be patched by non-electromagnetic forces.

All radial integrals are computed on the dimensionless variable x = r/r_s
with unit e^2/r_s factored out, split at x = 1, tail mapped by x -> 1/t, and
the inner limit either Richardson-completed or reported Divergent (the
linear theory without cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import PhysicalConstants, classical_electron_radius, constants
from .constitutive import _characteristic_field, field_from_displacement
from .errors import ConfigurationError, UnsupportedModel
from .kinematics import FOUR_PI
from .models import (BORN_INFELD, LagrangianModel, born_infeld,
                     density_from_invariants)
from .quadrature import QuadratureSpec, adaptive_quad, inner_limit_quad, tail_quad

CONVENTION_PAPER = "paper"
CONVENTION_ENERGY = "energy-consistent"
CONVENTIONS = (CONVENTION_PAPER, CONVENTION_ENERGY)

_INNER_START = 1e-2  # first inner limit of the refinement ladder, in x


@dataclass(frozen=True)
class StressSummary:
    """Energy and stress volume integrals with quadrature diagnostics."""

    U_total: float
    laue_trace: float
    momentum: np.ndarray
    quad_error: float
    cutoff_r: float | None = None


def radial_scale(m: LagrangianModel, e: float, cutoff_r: float | None = None) -> float:
    """The radial unit r_s of profile grids and radial integrals.

    sqrt(e/E0) for the limiting-field kinds; sqrt(e/E_c) for polynomial
    models, E_c being the field where their nonlinearity becomes order one;
    otherwise the cutoff when one is given, else the classical electron
    radius e^2/(m_e c^2) (both constant presets share m_e and c).
    """
    if not e > 0:
        raise ConfigurationError(f"charge must be positive, got {e}")
    if cutoff_r is not None and not cutoff_r > 0:
        raise ConfigurationError(f"cutoff radius must be positive, got {cutoff_r}")
    char = _characteristic_field(m)
    if char is not None:
        return float(np.sqrt(e / char))
    if cutoff_r is not None:
        return float(cutoff_r)
    k = constants()
    return e**2 / (k.m_e * k.c**2)


def _stress_densities(m: LagrangianModel, E, D):
    """(u, L) from the field E and the exact displacement D; scalar or array.

    u = E D/4pi - L(E^2, 0) is the energy density and radial stress T_rr,
    and T_theta,theta = -L.  u stays well conditioned arbitrarily close to
    the center because D is exact and L is a regular function of E there,
    whereas recomputing D from E crosses the radicand cancellation.
    """
    L = density_from_invariants(m, E * E, 0.0)
    return E * D / FOUR_PI - L, L


def _radial_integrand(m: LagrangianModel, e: float, r_s: float, trace: bool = False):
    """Dimensionless g(x), x = r/r_s, of the volume integral of u (or, with
    ``trace``, of the spatial stress trace u - 2L) in units of e^2/r_s."""
    unit = e**2 / r_s

    def g(x: float) -> float:
        r = x * r_s
        D = e / r**2
        u, L = _stress_densities(m, field_from_displacement(m, D).E, D)
        return (u - 2.0 * L if trace else u) * FOUR_PI * r**2 * r_s / unit

    return g


def _radial_integral(g, quad: QuadratureSpec, r_s: float) -> tuple[float, float]:
    """integral of g(x) dx over (x_inner, inf); dimensionless g of x = r/r_s."""
    if quad.cutoff_r is not None:
        xc = quad.cutoff_r / r_s
        x_split = max(1.0, xc)
        head, e_head = (adaptive_quad(g, xc, x_split, quad)
                        if xc < x_split else (0.0, 0.0))
    else:
        x_split = 1.0
        head, e_head = inner_limit_quad(g, _INNER_START, x_split, quad)
    tail, e_tail = tail_quad(g, x_split, quad)
    return head + tail, e_head + e_tail


def total_energy(m: LagrangianModel, e: float,
                 quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """(U, error) of the field self-energy integral of u 4 pi r^2 dr.

    Raises Divergent for the linear theory without an inner cutoff; the
    inner-limit partial integrals are then non-Cauchy and the failure is a
    first-class result, not a number.
    """
    r_s = radial_scale(m, e, quad.cutoff_r)
    unit = e**2 / r_s
    value, err = _radial_integral(_radial_integrand(m, e, r_s), quad, r_s)
    return value * unit, err * unit


def stress_integrals(m: LagrangianModel, e: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> StressSummary:
    """Volume integrals of the spatial stress trace alongside the energy.

    momentum is identically zero for electrostatic input (E x H = 0); each
    Cartesian integral of T_ii dV equals laue_trace/3 by spherical symmetry.
    """
    r_s = radial_scale(m, e, quad.cutoff_r)
    unit = e**2 / r_s
    U, err_u = _radial_integral(_radial_integrand(m, e, r_s), quad, r_s)
    trace, err_t = _radial_integral(_radial_integrand(m, e, r_s, trace=True), quad, r_s)
    return StressSummary(
        U_total=U * unit,
        laue_trace=trace * unit,
        momentum=np.zeros(3),
        quad_error=(err_u + err_t) * unit,
        cutoff_r=quad.cutoff_r)


@lru_cache(maxsize=1)
def born_infeld_energy_constant() -> float:
    """C in U = C e^2/r0 for the limiting-field model, computed numerically
    (equals Gamma(1/4)^2 / (6 sqrt(pi)) = 1.23605 to the quadrature tolerance)."""
    U, _ = total_energy(born_infeld(1.0), 1.0,
                        QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12))
    return U


def effective_radius(convention: str, k: PhysicalConstants,
                     model_kind: str = BORN_INFELD) -> float:
    """Effective soliton radius under the chosen convention.

    'paper' divides the classical radius by C, which reproduces the
    historical tabulated value 2.28e-13 cm with the 1934 constants;
    'energy-consistent' solves U(r0) = m_e c^2, giving r0 = C r_e.  The two
    conflict by a factor C^2; both are exposed, neither is preferred.
    """
    if model_kind != BORN_INFELD:
        raise UnsupportedModel(
            f"effective radius needs the finite-self-energy model, got {model_kind!r}")
    C = born_infeld_energy_constant()
    r_e = classical_electron_radius(k)
    if convention == CONVENTION_PAPER:
        return r_e / C
    if convention == CONVENTION_ENERGY:
        return C * r_e
    raise ConfigurationError(
        f"unknown radius convention {convention!r}; choose one of {CONVENTIONS}")


def mass_from_energy(U: float, k: PhysicalConstants) -> float:
    """m = U / c^2."""
    if U < 0:
        raise ValueError(f"field energy must be >= 0, got {U}")
    return U / k.c**2


def check_stress_divergence(profile) -> float:
    """Max residual of dT_rr/dr + (2/r)(T_rr - T_thth) = 0 on the profile.

    Normalized by the largest magnitude of the two terms that must cancel,
    so a fabricated non-conserved profile scores O(1) even when one term
    vanishes identically.
    """
    from .soliton import grid_derivative  # deferred: soliton imports this module

    r = profile.grid.r
    T_rr = profile.u
    geom = (2.0 / r) * (profile.E * profile.D / FOUR_PI)  # (2/r)(T_rr - T_thth)
    dT = grid_derivative(profile.grid, T_rr)
    resid = dT + geom
    scale = float(np.max(np.abs(dT) + np.abs(geom)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(resid)) / scale)
