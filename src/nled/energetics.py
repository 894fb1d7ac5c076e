"""Total self-energy, von Laue stress integrals and effective-radius
conventions.

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

Both volume integrals, and the potential, come from one walk
(constitutive._walk) along the inversion's own search variable, whose nodes
are points of the explicit forward map.  phi has one builder, _phi_walk,
for a profile's grid and for a single radius alike.  _radial_walk runs the
walk at unit charge on the map's unit twin, the map in units of its field
scale E_c = e/r_s^2 (a linear map, with r_s the cutoff or the classical
radius, is its own), and scales U and T by e^2/r_s, phi by e/r_s; each walk
from (1, 1), every center and every linear map's, is made once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .constants import PhysicalConstants, classical_electron_radius, constants
from .constitutive import (_shape, _unit_twin, _walk, attainable_displacement_max,
                           field_from_displacement)
from .errors import ConfigurationError, Divergent, NoSolution, NumericalError, UnsupportedModel
from .kinematics import FOUR_PI
from .models import (BORN_INFELD, LagrangianModel, born_infeld,
                     density_from_invariants)
from .quadrature import QuadratureSpec

CONVENTION_PAPER = "paper"
CONVENTION_ENERGY = "energy-consistent"
CONVENTIONS = (CONVENTION_PAPER, CONVENTION_ENERGY)

@dataclass(frozen=True)
class StressSummary:
    """Energy and stress volume integrals with quadrature diagnostics."""

    U_total: float
    laue_trace: float
    momentum: np.ndarray
    quad_error: float


def radial_scale(m: LagrangianModel, e: float, cutoff_r: float | None = None) -> float:
    """The radial unit r_s of profile grids and radial integrals.

    sqrt(e/E_c) for a map with a scale E_c (E0, or where a polynomial's
    nonlinearity becomes order one); otherwise the cutoff when one is given,
    else the classical electron radius e^2/(m_e c^2) (both constant presets
    share m_e and c).
    """
    if not 0 < e < np.inf:
        raise ConfigurationError(f"charge must be finite and positive, got {e}")
    if cutoff_r is not None and not cutoff_r > 0:
        raise ConfigurationError(f"cutoff radius must be positive, got {cutoff_r}")
    scale = _shape(m).scale
    if scale is not None:  # an overflowed radius fails _source_displacement
        return math.sqrt(float(e) / float(scale))
    if cutoff_r is not None:
        return float(cutoff_r)
    k = constants()
    with np.errstate(over="ignore"):
        return float(np.float64(e) ** 2 / (k.m_e * k.c**2))


_TINY = np.finfo(float).tiny


def _source_displacement(e: float, r):
    """D = e/r^2 of the point charge at radii r (a Python float, or an array),
    raising ConfigurationError unless every D is a finite, positive, normal double."""
    if isinstance(r, float):  # r**2 raises OverflowError, and e/0.0 ZeroDivisionError
        r2 = r**2 if r * r < np.inf else r * r
        D = lo = hi = float(e) / r2 if r2 else np.inf
    else:
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            D = e / np.asarray(r, dtype=float) ** 2
        lo, hi = D.min(), D.max()
    if not _TINY <= lo <= hi < np.inf:
        i = np.argmin(np.ravel((D >= _TINY) & (D < np.inf)))  # the first one out of range
        raise ConfigurationError(
            f"radius {float(np.ravel(r)[i])!r} cm gives D = e/r^2 = "
            f"{float(np.ravel(D)[i])!r}, not a finite, positive, normal double")
    return D


def _stress_densities(m: LagrangianModel, E, D):
    """(u, L) from the field E and the exact displacement D; scalar or array.

    u = E D/4pi - L(E^2, 0) is the energy density and radial stress T_rr,
    and T_theta,theta = -L.  u stays well conditioned arbitrarily close to
    the center because D is exact and L is a regular function of E there,
    whereas recomputing D from E crosses the radicand cancellation.
    """
    L = density_from_invariants(m, E * E, 0.0)
    return E * D / FOUR_PI - L, L


# The error estimate repeats each sum of the walk's rule with the lower rule
# on the same panels and allows a few ulps per node for rounding.
_ROUNDING = 8.0 * np.finfo(float).eps


def _phi_rows(e: float, D, E, slope, w):
    """phi's walk integrand, weighted: E dr = -(1/2) r E (d ln D/dx) dx along
    the search variable x, with r = sqrt(e)/sqrt(D) the explicit forward map,
    which stays finite where e/D overflows, deep in a large charge's tail."""
    return (w * 0.5 * (np.sqrt(e) / np.sqrt(D)) * E * slope,)


def _phi_walk(m: LagrangianModel, e: float, D: np.ndarray, E: np.ndarray) -> np.ndarray:
    """phi at the points (D, E) in falling D: _phi_rows' walk sums accumulated
    from the Coulomb end inward.  An inversion error dD in a start point moves its
    phi by -(r E/2D) dD, small at a non-monotone map's fold, where dD = D'(E) dE."""
    return np.cumsum(_walk(m, D, E, partial(_phi_rows, e))[0, 0, ::-1])[::-1][:D.size]


def _integrals(m: LagrangianModel, D_0, E_0, center: bool, phi: bool):
    """(U, trace, U error, trace error), then phi at the start if phi, from one
    walk at unit charge from (D_0, E_0) under its lower rule: u dV, (u - 2L) dV
    and |u dV| + |L dV| with dV = 2 pi r^3 (d ln D/dx) dx along x, and _phi_rows."""
    def integrand(D, E, slope, w):
        rows = _phi_rows(1.0, D, E, slope, w) if phi else ()
        u, L = _stress_densities(m, E, D)
        dV = 2.0 * np.pi * (1.0 / D) ** 1.5 * slope
        return (w * (u * dV), w * ((u - 2.0 * L) * dV),
                w * (np.abs(u * dV) + np.abs(L * dV)), *rows)

    sums = _walk(m, np.array([D_0]), np.array([E_0]), integrand, center, True).sum(axis=2)
    (U, U_low), (trace, trace_low), (scale, _) = sums[:3]
    rounding = _ROUNDING * scale
    return (U, trace, abs(U - U_low) + rounding, abs(trace - trace_low) + rounding,
            *sums[3:, 0])


@lru_cache(maxsize=64)
def _unit_record(twin: LagrangianModel, center: bool):
    """_integrals with phi of a unit twin at unit charge from (1, 1) outward, and with center
    inward too, a tuple callers share; for a diverging center (a linear map's) its Divergent."""
    try:
        return _integrals(twin, 1.0, 1.0, center, True)
    except Divergent as exc:
        return exc.with_traceback(None)


def _radial_walk(m: LagrangianModel, e: float, cutoff_r: float | None,
                 phi: bool = False) -> list:
    """[U, trace, U error, trace error], or with phi [phi(r_c)], over every
    radius from r_c outward, or without a cutoff from the center: the twin's
    _unit_record.  A cutoff costs one inversion (NoSolution carries the fold radius),
    and the twin walks from (D_0/E_c, E_0/E_c), or reads its record from (1, 1), a
    linear map's start; ConfigurationError unless D_0, that start and e/r_s^2 are normal doubles.
    Divergent, for a center-end rate that is not negative, carries the radii of its partials;
    the entry's scalars are Python floats."""
    r_s = radial_scale(m, e, cutoff_r)
    e = float(e)
    if cutoff_r is not None:
        D_0 = _source_displacement(e, float(cutoff_r))
        try:
            E_0 = field_from_displacement(m, D_0).E
        except NoSolution as exc:
            raise NoSolution(exc.d_target, exc.d_max_attainable,
                             radius_cm=math.sqrt(e / exc.d_max_attainable)) from exc
        E_c = float(_shape(m).scale or D_0)  # a linear map's unit field is e/r_s^2: (1, 1)
        start = D_0 / E_c, E_0 / E_c
        if not (_TINY <= start[0] < np.inf and _TINY <= start[1] < np.inf):
            raise ConfigurationError(f"{m.kind}: the cutoff {cutoff_r!r} cm puts the walk's "
                                     f"start at (D, E)/E_c = {start!r}, "
                                     f"not a finite, normal double")
    try:  # an r_s that over- or underflowed: no unit scales the twin
        _source_displacement(e, r_s)
    except ConfigurationError:  # a linear map with a cutoff passed this above, as D_0
        scale = _shape(m).scale
        unit = "e^2/(m_e c^2)" if scale is None else f"sqrt(e/E_c), E_c = {float(scale)!r},"
        raise ConfigurationError(f"{m.kind}: the radial scale r_s = {unit} is {r_s!r} cm at "
                                 f"charge {e!r}, and e/r_s^2 is not a finite, positive, "
                                 "normal double") from None
    if cutoff_r is None:
        d_max = attainable_displacement_max(m)
        if d_max < np.inf:
            raise NoSolution(e / r_s**2, d_max, radius_cm=math.sqrt(e / d_max),
                             note="without a cutoff the integral reaches every radius "
                                  "below radius_cm, where D exceeds the attainable maximum")
    twin, unit, rows = _unit_twin(m), e / r_s, slice(4, 5) if phi else slice(0, 4)
    units = ((e * e / r_s if _TINY <= e * e < np.inf else e * unit,) * 4 + (unit,))[rows]
    if cutoff_r is None or start == (1.0, 1.0):  # U = C e^2/r_s, as the paper writes it
        record = _unit_record(twin, cutoff_r is None)
        if isinstance(record, Divergent):  # a linear map's center
            partials, D = record.details["partials"][-1 if phi else 0], record.details["D"]
            raise Divergent(str(record), partials=[units[0] * p for p in partials],
                            inner_limits=(r_s / np.sqrt(D)).tolist())
        values = record[rows]
    elif phi:
        values = _phi_walk(twin, 1.0, np.array(start[:1]), np.array(start[1:]))
    else:
        values = _integrals(twin, *start, False, False)
    out = [u * float(v) for u, v in zip(units, values)]
    if not all(map(math.isfinite, out)):
        raise NumericalError(f"{m.kind}: an integral is beyond the double range", model_kind=m.kind)
    return out


def total_energy(m: LagrangianModel, e: float,
                 quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """(U, error) of the field self-energy integral of u 4 pi r^2 dr.

    Raises Divergent without an inner cutoff where r E does not vanish at
    the center, as for the linear theory: the failure is a first-class
    result, with the partial integrals inward and their inner radii.
    """
    U, _, err, _ = _radial_walk(m, e, quad.cutoff_r)
    return U, err


def stress_integrals(m: LagrangianModel, e: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> StressSummary:
    """Volume integrals of the spatial stress trace alongside the energy.

    momentum is identically zero for electrostatic input (E x H = 0); each
    Cartesian integral of T_ii dV equals laue_trace/3 by spherical symmetry.
    """
    U, trace, err_u, err_t = _radial_walk(m, e, quad.cutoff_r)
    return StressSummary(U_total=U, laue_trace=trace, momentum=np.zeros(3),
                         quad_error=err_u + err_t)


def born_infeld_energy_constant() -> float:
    """C in U = C e^2/r0 for the limiting-field model, computed numerically
    (equals Gamma(1/4)^2 / (6 sqrt(pi)) = 1.23605 to rounding)."""
    return total_energy(born_infeld(1.0), 1.0)[0]


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

