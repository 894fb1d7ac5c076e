import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gamma

from nled import (ConfigurationError, Divergent, NoSolution, NumericalError, PhysicalConstants,
                  QuadratureSpec, SolitonProfile, UnsupportedModel,
                  attainable_displacement_max, born_infeld,
                  born_infeld_energy_constant, check_stress_divergence,
                  classical_electron_radius, compute_profile, constants,
                  effective_radius, field_from_displacement, linear_grid, log_grid,
                  log_schroedinger, maxwell, polynomial,
                  potential_at, stress_integrals, total_energy)
from nled import constitutive, energetics, quadrature
from nled.energetics import radial_scale
from nled.models import density_from_invariants
from nled.soliton import RadialGrid

import reference
from conftest import PLANE, cold_caches

# Independent closed form for the self-energy constant.
C_EXACT = float(gamma(0.25) ** 2 / (6 * np.sqrt(np.pi)))

K = constants("historical1934")
E0 = 9.18e15
R0 = float(np.sqrt(K.e / E0))
BI = born_infeld(E0)
LS = log_schroedinger(E0)
POLY = polynomial(alpha=0.01, xi=0.001)
POLY_XI = polynomial(xi=0.001)
POLY_NEG = polynomial(alpha=-0.005, xi=0.001)  # monotone: no fold
POLY_STIFF_XI = polynomial(alpha=1e-30, xi=1e30)  # xi's scale is far below alpha's


def spec_at(cutoff_r):
    return QuadratureSpec(cutoff_r=cutoff_r)


# (model, cutoff) pairs covering every way the walk starts and ends
CASES = {
    "born_infeld": (BI, None),
    "log_model_cutoff": (LS, 2 * R0),
    "polynomial": (POLY, None),
    "polynomial_xi": (POLY_XI, None),
    "polynomial_stiff_xi": (POLY_STIFF_XI, None),
    "polynomial_negative_alpha_cutoff": (POLY_NEG, 0.5 * radial_scale(POLY_NEG, K.e)),
    "maxwell_cutoff": (maxwell(), R0),
}


def two_term_polynomial(lift):
    """polynomial(alpha=1, xi) with xi's scale lift e-folds above alpha's, so
    that xi's term overtakes alpha's 2 lift e-folds above alpha's scale."""
    E_alpha = (16 * np.pi) ** -0.5
    return polynomial(alpha=1.0, xi=(E_alpha * np.exp(lift)) ** -4 / (24 * np.pi))


def boundary_terms(m, r):
    """(E, L) at radius r, for the closed virial and trace forms."""
    E = field_from_displacement(m, K.e / r**2).E
    return E, density_from_invariants(m, E * E, 0.0)


class TestEnergyDensity:
    """The profile's u = E D/4pi - L against closed forms."""

    def test_maxwell(self):
        g = log_grid(1e-12, 1e-10, 9)
        u = compute_profile(maxwell(), K.e, g).u
        assert_allclose(u, K.e**2 / (8 * np.pi * g.r**4), rtol=1e-14)

    def test_born_infeld_at_effective_radius(self):
        # u(r0) = (E0^2/4pi)(sqrt(2) - 1)
        u = compute_profile(BI, K.e, RadialGrid(r=np.geomspace(R0, 10 * R0, 9))).u
        assert_allclose(u[0], E0**2 * (np.sqrt(2) - 1) / (4 * np.pi), rtol=1e-14)
        assert_allclose(u[0] / E0**2, 0.0329621, rtol=1e-5)

    def test_zero_field(self):
        # u vanishes with the field: no offset under the Coulomb tail D^2/8pi
        g = log_grid(1e4 * R0, 1e5 * R0, 9)
        u = compute_profile(BI, K.e, g).u
        assert_allclose(u, K.e**2 / (8 * np.pi * g.r**4), rtol=1e-13)


class TestRadialScale:
    def test_limiting_field_radius(self):
        assert radial_scale(BI, K.e) == R0
        assert radial_scale(BI, K.e, cutoff_r=1e-13) == R0

    def test_unit_polynomial_scale_beats_cutoff(self):
        # E_c = 1 for alpha = 1/16pi: a real scale, not a missing one
        m = polynomial(alpha=1 / (16 * np.pi))
        assert_allclose(radial_scale(m, K.e, cutoff_r=3e-13), np.sqrt(K.e), rtol=1e-15)

    def test_scale_free_falls_back_to_cutoff_then_classical_radius(self):
        assert radial_scale(maxwell(), K.e, cutoff_r=3e-13) == 3e-13
        assert radial_scale(maxwell(), K.e) == classical_electron_radius(K)
        assert radial_scale(polynomial(beta=0.1), K.e) == classical_electron_radius(K)

    def test_nonpositive_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            radial_scale(BI, 0.0)

    @pytest.mark.parametrize("e", [np.inf, np.nan])
    def test_nonfinite_charge_rejected(self, e):
        with pytest.raises(ConfigurationError):
            radial_scale(BI, e)


class TestTotalEnergy:
    def test_born_infeld_constant(self):
        U, err = total_energy(born_infeld(1.0), 1.0)
        assert_allclose(U, C_EXACT, rtol=1e-4)
        assert_allclose(U, C_EXACT, rtol=1e-13)  # actual accuracy is higher
        assert err < 1e-8

    def test_units_scale_out(self):
        U, _ = total_energy(BI, K.e)
        assert_allclose(U / (K.e**2 / R0), C_EXACT, rtol=1e-13)

    def test_maxwell_cutoff(self):
        r_c = 3.7e-13
        U, _ = total_energy(maxwell(), K.e, QuadratureSpec(cutoff_r=r_c))
        assert_allclose(U, K.e**2 / (2 * r_c), rtol=1e-13)

    def test_maxwell_without_cutoff_diverges(self):
        with pytest.raises(Divergent):
            total_energy(maxwell(), K.e)

    @pytest.mark.parametrize("cutoff", [-2.28e-13, 0.0])
    def test_nonpositive_cutoff_rejected(self, cutoff):
        # a cutoff that is itself the radial unit must not integrate as x_c = 1
        for m in (maxwell(), BI):
            with pytest.raises(ConfigurationError):
                total_energy(m, K.e, QuadratureSpec(cutoff_r=cutoff))

    @pytest.mark.parametrize("cutoff", [1e300, 1e160, np.inf])
    def test_cutoff_outside_double_range_rejected(self, cutoff):
        # e/r_c^2 underflows: the walk would start at D = 0
        for m in (maxwell(), BI):
            with pytest.raises(ConfigurationError):
                total_energy(m, K.e, QuadratureSpec(cutoff_r=cutoff))

    @pytest.mark.parametrize("e", [1e-100, 1e100, 1e200])
    def test_classical_radius_outside_double_range_rejected(self, e):
        with pytest.raises(ConfigurationError):
            total_energy(maxwell(), e)

    @pytest.mark.parametrize("e, cutoff", [(1.0, 1e150), (1.0, 1e-150), (1e-100, 1e100)],
                             ids=["far_cutoff", "near_cutoff", "small_charge"])
    def test_maxwell_beyond_physical_double_range(self, e, cutoff):
        # the walk at charge e raised NumericalError at (1, 1e150), where U =
        # 5e-151; on its unit twin U = e^2/2r_c, trace = -U and phi = e/r_c
        spec, U = spec_at(cutoff), e * e / (2 * cutoff)
        s = stress_integrals(maxwell(), e, spec)
        assert abs(s.U_total / U - 1) <= 4.5e-16
        assert abs(s.laue_trace / -U - 1) <= 4.5e-16
        assert total_energy(maxwell(), e, spec)[0] == s.U_total
        assert abs(potential_at(maxwell(), e, cutoff) / (e / cutoff) - 1) <= 4.5e-16

    def test_start_outside_double_range_rejected(self):
        # D/E0 = 1e310 at the cutoff: the twin's start overflowed (a bare OverflowError)
        m, spec = born_infeld(1e-150), spec_at(1e-80)
        for f in (total_energy, stress_integrals):
            with pytest.raises(ConfigurationError, match="not a finite, normal double"):
                f(m, 1.0, spec)
        with pytest.raises(ValueError, match="not a finite, normal double"):
            potential_at(m, 1.0, 1e-80)

    _CUTOFF = "cutoff radius must be positive, got {}"
    _RADIUS = "radius {} cm gives D = e/r^2 = {}, not a finite, positive, normal double"
    _START = "{}: the cutoff {} cm puts the walk's start at (D, E)/E_c = {}, not a finite, normal double"
    _CHARGE = "charge must be finite and positive, got {}"

    @pytest.mark.parametrize("m, e, cutoff, energy_error, potential_error", [
        (BI, K.e, 1e170, _RADIUS.format("1e+170", "0.0"), None),
        (BI, K.e, 1e-170, _RADIUS.format("1e-170", "inf"), None),
        (BI, K.e, 0.0, _CUTOFF.format("0.0"), "center"),
        (BI, K.e, -2.28e-13, _CUTOFF.format("-2.28e-13"), "radius must be >= 0, got -2.28e-13"),
        (BI, K.e, np.nan, _CUTOFF.format("nan"), "radius must be >= 0, got nan"),
        (BI, K.e, np.inf, _RADIUS.format("inf", "0.0"), None),
        (BI, 0.0, R0, _CHARGE.format("0.0"), None),
        (BI, np.inf, R0, _CHARGE.format("inf"), None),
        (BI, np.nan, R0, _CHARGE.format("nan"), None),
        (born_infeld(1e-150), 1.0, 1e-80, _START.format("born-infeld", "1e-80", "(inf, 1.0)"), None),
        (born_infeld(1e150), 1.0, 1e100, _START.format("born-infeld", "1e+100", "(0.0, 0.0)"), None),
        (log_schroedinger(1e150), 1.0, 1e80,
         _START.format("log-schroedinger", "1e+80", "(1e-310, 1e-310)"), None),
        (polynomial(alpha=2e306), 1e250, 1e150, _RADIUS.format("inf", "0.0"), None),
        (born_infeld(1e150), 1e-300, 1e-160, _RADIUS.format("0.0", "inf"), None)],
        ids=["cutoff_square_overflows", "cutoff_square_underflows", "cutoff_zero",
             "cutoff_negative", "cutoff_nan", "cutoff_inf", "charge_zero", "charge_inf",
             "charge_nan", "start_overflows", "start_underflows", "start_subnormal",
             "unit_radius_overflows", "unit_radius_underflows"])
    def test_entry_edge_raises_its_error(self, m, e, cutoff, energy_error, potential_error):
        # the entry's scalars are Python floats, where r**2 raises OverflowError and
        # x/0.0 ZeroDivisionError: each edge keeps its ConfigurationError and message;
        # potential_at reads r = 0 as the center and rejects a negative or NaN radius.
        # A radial unit r_s = sqrt(e/E_c) beyond the doubles with a cutoff scaled
        # every output to 0.0 (r_s = inf) or raised ZeroDivisionError (r_s = 0)
        def exactly(message):
            return "^" + re.escape(message) + "$"
        for f in (total_energy, stress_integrals):
            with pytest.raises(ConfigurationError, match=exactly(energy_error)):
                f(m, e, spec_at(cutoff))
        if potential_error == "center":  # U = (2/3) e phi(0)
            assert abs(potential_at(m, e, cutoff) / (1.5 * total_energy(m, e)[0] / e) - 1) <= 1e-14
            return
        error = ValueError if potential_error else ConfigurationError
        with pytest.raises(error, match=exactly(potential_error or energy_error)):
            potential_at(m, e, cutoff)

    @pytest.mark.parametrize("e, cutoff", [(1e200, 1e100), (1e-200, 1e-100)],
                             ids=["charge_square_overflows", "charge_square_underflows"])
    def test_charge_square_beyond_the_doubles(self, e, cutoff):
        # e^2 leaves the doubles, so U is scaled as e (e/r_s): Maxwell's closed forms,
        # and born-infeld's unit-charge values at the same cutoff in units of r_s
        U = e * (e / cutoff) / 2
        s = stress_integrals(maxwell(), e, spec_at(cutoff))
        assert abs(s.U_total / U - 1) <= 4.5e-16 and abs(s.laue_trace / -U - 1) <= 4.5e-16
        assert total_energy(maxwell(), e, spec_at(cutoff))[0] == s.U_total
        assert abs(potential_at(maxwell(), e, cutoff) / (e / cutoff) - 1) <= 4.5e-16
        m, unit = born_infeld(1.0), e / cutoff  # r_s = sqrt(e/E0) = cutoff
        U_1, phi_1 = total_energy(m, 1.0, spec_at(1.0))[0], potential_at(m, 1.0, 1.0)
        assert total_energy(m, e, spec_at(cutoff))[0] == e * unit * U_1
        assert potential_at(m, e, cutoff) == unit * phi_1

    @pytest.mark.parametrize("m, e", [(born_infeld(1e150), 1e-200), (born_infeld(2.0**-511), 1e300),
                                      (log_schroedinger(1e150), 1e-200),
                                      (log_schroedinger(2.0**-511), 1e300),
                                      (polynomial(alpha=2e306), 1e250)],
                             ids=["scale_underflows", "scale_overflows", "log_scale_underflows",
                                  "log_scale_overflows", "polynomial_scale_overflows"])
    def test_map_scale_outside_double_range_rejected(self, m, e):
        # r_s = sqrt(e/E0) is 0 or inf: rejected before e/r_s or e^2/r_s is formed (the
        # log model's fold check divided by r_s^2 = 0 first, a ZeroDivisionError)
        for f in (total_energy, stress_integrals, lambda m, e: potential_at(m, e, 0.0)):
            with pytest.raises(ConfigurationError, match="not a finite, positive, normal double"):
                f(m, e)

    @pytest.mark.parametrize("m, ref", [(born_infeld(1e150), born_infeld(1.0)),
                                        (polynomial(alpha=1e-250), polynomial(alpha=0.01))],
                             ids=["born_infeld_1e150", "polynomial"])
    def test_walk_beyond_physical_double_range(self, m, ref):
        # u = E D/4 pi overflowed at the inner nodes of a walk in physical
        # units; on the unit twin U = U(ref) (E_c/E_c,ref)^(1/2) e^(3/2)
        ratio = radial_scale(ref, 1.0) / radial_scale(m, 1.0)  # (E_c/E_c,ref)^(1/2)
        U = total_energy(m, K.e)[0]
        assert abs(U / (total_energy(ref, 1.0)[0] * ratio * K.e**1.5) - 1) <= 1e-14
        assert stress_integrals(m, K.e).U_total == U

    @pytest.mark.parametrize("e", [1e-54, 1e54])
    def test_divergence_reported_before_overflow(self, e):
        # a walk at charge e overflowed at its innermost nodes for these
        # charges; the unit twin's center-end rate shows the center diverging
        with pytest.raises(Divergent):
            total_energy(maxwell(), e)

    def test_born_infeld_constant_across_limiting_fields(self):
        # deep inside, the walked E rounds up to E0 for many E0: L must stay defined
        for E0_draw in np.geomspace(1e-5, 1e25, 61):
            U, _ = total_energy(born_infeld(E0_draw), K.e)
            assert_allclose(U * np.sqrt(K.e / E0_draw) / K.e**2, C_EXACT, rtol=1e-13)

    def test_charge_scaling_three_halves(self):
        # at fixed E0, r0 = sqrt(e/E0) so U = C e^2/r0 scales as e^(3/2)
        U1, _ = total_energy(BI, K.e)
        U2, _ = total_energy(BI, 2 * K.e)
        assert_allclose(U2 / U1, 2**1.5, rtol=1e-13)

    @pytest.mark.parametrize("name", ["born_infeld", "log_model_cutoff", "polynomial",
                                      "maxwell_cutoff"])
    def test_reported_error_bounds_oracle_error(self, name):
        m, cutoff = CASES[name]
        U, err = total_energy(m, K.e, spec_at(cutoff))
        if name == "born_infeld":
            ref = C_EXACT * K.e**2 / R0
        elif name == "maxwell_cutoff":
            ref = K.e**2 / (2 * cutoff)
        else:
            ref = float(reference.energies(m, K.e, cutoff)[0])
        assert 0 < err < 1e-13 * U
        assert abs(U - ref) <= err
        assert stress_integrals(m, K.e, spec_at(cutoff)).quad_error >= err


class TestFieldSpaceReference:
    """U and the trace against 40-digit field-space quadratures."""

    @pytest.mark.parametrize("name", ["polynomial", "polynomial_xi", "polynomial_stiff_xi",
                                      "log_model_cutoff", "polynomial_negative_alpha_cutoff"])
    def test_energy_and_trace(self, name):
        m, cutoff = CASES[name]
        U_ref, trace_ref = map(float, reference.energies(m, K.e, cutoff))
        s = stress_integrals(m, K.e, spec_at(cutoff))
        assert_allclose(s.U_total, U_ref, rtol=1e-13)
        assert abs(s.laue_trace - trace_ref) <= 1e-13 * U_ref
        assert total_energy(m, K.e, spec_at(cutoff))[0] == s.U_total


class TestDivergence:
    """A linear map has no finite self-energy or phi(0): its walk's
    center-end rate is +1/2, the inner partial integrals grow geometrically
    and the failure carries them."""

    @pytest.mark.parametrize("m", [maxwell(), polynomial(beta=0.1),
                                   polynomial(gamma=0.3, zeta=1.0)],
                             ids=["maxwell", "linear_polynomial", "linear_at_zero_H"])
    def test_growing_partials(self, m):
        for f in (total_energy, lambda m, e: potential_at(m, e, 0.0)):
            with pytest.raises(Divergent, match=r"center-end rate k = 0\.5 ") as exc_info:
                f(m, K.e)
            details = exc_info.value.details
            partials, radii = details["partials"], details["inner_limits"]
            assert len(partials) >= 4 and len(radii) == len(partials)
            diffs = np.diff(partials)
            assert np.all(diffs > 0) and np.all(diffs[1:] > diffs[:-1])
            assert np.all(np.diff(radii) < 0)
        with pytest.raises(Divergent):
            stress_integrals(m, K.e)

    @pytest.mark.parametrize("e", [1e-54, 1.0, 1e54])
    def test_record_holds_finite_numbers(self, e):
        # a walk at charge e kept 0 partials at 1e54, where the outer total
        # was 0 * inf, and 5 at 1e-54; the unit twin keeps all 21 at any
        # charge, at radii r_s/sqrt(D) of the twin's anchors D = e^(2j)
        r_s = radial_scale(maxwell(), e)
        radii = r_s / np.sqrt(np.exp(2.0 * np.arange(21)))
        for f in (total_energy, stress_integrals, lambda m, e: potential_at(m, e, 0.0)):
            with pytest.raises(Divergent, match=r"^maxwell: .* center-end rate k = 0\.5 ") as exc_info:
                f(maxwell(), e)
            json.dumps(exc_info.value.to_dict(), allow_nan=False)
            partials, limits = (exc_info.value.details[k] for k in ("partials", "inner_limits"))
            assert len(partials) == 21 and np.all(np.diff(partials) > 0)
            assert_allclose(limits, radii, rtol=1e-15)


    @pytest.mark.parametrize("e", [1e-54, K.e, 1e54])
    def test_partials_are_their_own_integrals(self, e):
        # one record of the center holds every row's partials: phi's are e/r
        # at their inner limits, U's e^2/2r
        for f, exact in ((lambda m, e: potential_at(m, e, 0.0), lambda r: e / r),
                         (total_energy, lambda r: e * e / (2 * r))):
            with pytest.raises(Divergent) as exc_info:
                f(maxwell(), e)
            partials, limits = (np.array(exc_info.value.details[k])
                                for k in ("partials", "inner_limits"))
            assert np.max(np.abs(partials / exact(limits) - 1)) <= 4.5e-16


class TestVirial:
    """The walk against the potential's: U(r_in) = (2e/3)(phi(r_in) + r_in
    E_in) - e r_in E_in + (4 pi/3) r_in^3 L_in, and the trace against its
    closed boundary term -e r_c E_c + 4 pi r_c^3 L_c."""

    @pytest.mark.parametrize("E0", [*np.geomspace(1e-100, 1e100, 21).tolist(), E0],
                             ids=lambda E0: f"E0={E0:.3g}")
    def test_born_infeld_center(self, E0):
        # the potential and the energy integral are the walk's two callers
        m = born_infeld(E0)
        U, _ = total_energy(m, K.e)
        assert_allclose(U, (2 / 3) * K.e * potential_at(m, K.e, 0.0), rtol=1e-13)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=PLANE)
    def test_center_on_the_plane(self, m):
        # Gauss's law and von Laue's zero trace: U = (2/3) e phi(0)
        assume(attainable_displacement_max(m) == np.inf)  # a fold has no center
        U, _ = total_energy(m, K.e)
        assert_allclose(U, (2 / 3) * K.e * potential_at(m, K.e, 0.0), rtol=1e-14)

    @pytest.mark.parametrize("name", ["log_model_cutoff", "polynomial", "maxwell_cutoff",
                                      "polynomial_negative_alpha_cutoff"])
    def test_cutoff(self, name):
        m, cutoff = CASES[name]
        r = cutoff if cutoff is not None else radial_scale(m, K.e)
        E, L = boundary_terms(m, r)
        s = stress_integrals(m, K.e, spec_at(r))
        virial = ((2 * K.e / 3) * (potential_at(m, K.e, r) + r * E) - K.e * r * E
                  + (4 * np.pi / 3) * r**3 * L)
        assert_allclose(s.U_total, virial, rtol=1e-13)
        assert abs(s.laue_trace - (-K.e * r * E + 4 * np.pi * r**3 * L)) <= 1e-13 * s.U_total

    @pytest.mark.parametrize("m", [BI, POLY, POLY_XI], ids=["born_infeld", "polynomial",
                                                          "polynomial_xi"])
    def test_trace_vanishes_without_cutoff(self, m):
        s = stress_integrals(m, K.e)
        assert abs(s.laue_trace) <= 1e-14 * s.U_total


class TestCenterTop:
    """Without a cutoff the center walk reaches past the map's top, where its
    last power law sets in: with alpha > 0, xi's term overtakes alpha's at
    E^2 = 16 pi alpha/24 pi xi.  When that lay 8-16 e-folds past a walk
    that stopped 40 above alpha's scale, the center closed on alpha's rate
    and both rules agreed on the wrong tail (U off by 2.1e-12, quad_error
    4.2e-13 of U)."""

    @pytest.mark.parametrize("lift", [24, 25, 26, 28])
    def test_against_log_field_reference(self, lift):
        m = two_term_polynomial(lift)
        U_ref, trace_ref = map(float, reference.energies(m, 1.0))
        s = stress_integrals(m, 1.0)
        assert abs(s.U_total - U_ref) <= 1e-14 * U_ref
        assert abs(s.U_total - U_ref) <= s.quad_error
        assert abs(s.laue_trace - trace_ref) <= 1e-14 * U_ref

    def test_top_beyond_reach(self):
        # xi's term takes over ~350 e-folds above alpha's scale, where the
        # walk's densities overflow; the anchors stop short, and U is alpha's
        s = stress_integrals(polynomial(alpha=1e100, xi=1e-100), 1.0)
        assert_allclose(s.U_total, stress_integrals(polynomial(alpha=1e100), 1.0).U_total,
                         rtol=1e-14)
        assert abs(s.laue_trace) <= 1e-14 * s.U_total

    def test_lift_beyond_double_range(self):
        # top/scale is 1e312, past the double range: nothing may overflow, and
        # on the unit twin U = (2/3) e phi(0) holds here too (the walk in
        # physical units missed it by 1.27e-7)
        m = polynomial(alpha=2.4e296, xi=-8e-175)
        energetics._unit_record.cache_clear()
        U, phi0 = stress_integrals(m, 1.0).U_total, potential_at(m, 1.0, 0.0)
        assert abs(U / ((2 / 3) * phi0) - 1) <= 1e-14


@st.composite
def dilated_polynomial(draw):
    """(m0, alpha, xi, k): a polynomial m0 with 16 pi |alpha0| and 24 pi xi0
    in [1e-3, 1e3], or one of them 0, and the coefficients of its dilation by
    4^k in E, alpha0 16^-k and xi0 256^-k, whose scale is 4^k times m0's
    exactly; k reaches the ends of the double range."""
    which = draw(st.sampled_from(["both", "alpha", "xi"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    alpha = 0.0 if which == "xi" else sign * 10.0 ** draw(st.floats(-3.0, 3.0)) / (16 * np.pi)
    xi = 0.0 if which == "alpha" else 10.0 ** draw(st.floats(-3.0, 3.0)) / (24 * np.pi)
    k = draw(st.integers(-254, 254) if which == "alpha" else st.integers(-126, 126))
    return polynomial(alpha=alpha, xi=xi), math.ldexp(alpha, -4 * k), math.ldexp(xi, -8 * k), k


class TestSelfSimilarity:
    """Every soliton of a map with a scale E_c is its unit twin's, dilated
    (Derrick, J. Math. Phys. 5, 1252, 1964): U, the trace and quad_error go
    as e^(3/2) E_c^(1/2), and phi(0) as (e E_c)^(1/2), across the accepted
    domain, where the walk in physical units over- or underflowed."""

    CHARGES = st.sampled_from([1e-20, 1.0, 1e20])

    @staticmethod
    def assert_dilated(m, e, ref, unit):
        """m's outputs at charge e are ref's at unit charge times unit =
        e^(3/2) (E_c/E_c,ref)^(1/2), to a few roundings of the scale."""
        s, r = stress_integrals(m, e), stress_integrals(ref, 1.0)
        assert abs(s.U_total / unit / r.U_total - 1) <= 1e-15
        assert abs(s.laue_trace / unit - r.laue_trace) <= 1e-15 * r.U_total
        assert abs(s.quad_error / unit / r.quad_error - 1) <= 1e-15
        assert abs(potential_at(m, e, 0.0) / (unit / e) / potential_at(ref, 1.0, 0.0) - 1) <= 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(log_E0=st.floats(-511 * np.log10(2.0), 150.0), e=CHARGES)
    @example(log_E0=150.0, e=K.e)
    @example(log_E0=-152.0, e=K.e)
    @example(log_E0=-1000.0, e=1.0)  # E0 = 2^-511, the least accepted
    def test_born_infeld(self, log_E0, e):
        E0 = min(max(10.0**log_E0, 2.0**-511), 1e150)
        self.assert_dilated(born_infeld(E0), e, born_infeld(1.0), e * np.sqrt(e) * np.sqrt(E0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=dilated_polynomial(), e=CHARGES)
    def test_polynomial(self, case, e):
        m0, alpha, xi, k = case
        assume(attainable_displacement_max(m0) == np.inf)  # a fold has no center
        assume(all(c == 0.0 or np.finfo(float).tiny <= abs(c) and np.isfinite(24 * np.pi * c)
                   for c in (alpha, xi)))
        self.assert_dilated(polynomial(alpha=alpha, xi=xi), e, m0, e * np.sqrt(e) * 2.0**k)

    @pytest.mark.parametrize("folds", [2.0, 10.0])
    def test_fold_near_the_top_of_the_double_range(self, folds):
        # with cutoffs 2 and 10 fold radii out, the walk in physical units
        # missed U by -6.2e-4 and -3.1e-3, with quad_error 1.2e-4 and 9.1e-4
        # of U; alpha = -0.01 is the same map at another scale
        s, r = (stress_integrals(m, 1.0, spec_at(folds / np.sqrt(attainable_displacement_max(m))))
                for m in (polynomial(alpha=-2e306), polynomial(alpha=-0.01)))
        f = 2e306 ** -0.25 / 0.01 ** -0.25  # U goes as |alpha|^(-1/4)
        assert abs(s.U_total / (r.U_total * f) - 1) <= 1e-14
        assert abs(s.laue_trace - r.laue_trace * f) <= 1e-14 * s.U_total
        assert s.quad_error < 1e-13 * s.U_total

    def test_one_center_walk_for_a_family(self, recorded):
        # every born-infeld soliton is born_infeld(1)'s: one walk to the center
        energetics._unit_record.cache_clear()
        log = recorded(energetics, "_walk")
        for E0, e in zip(np.geomspace(1e-150, 1e150, 20), np.geomspace(1e20, 1e-20, 20)):
            m = born_infeld(E0)
            stress_integrals(m, e), total_energy(m, e), potential_at(m, e, 0.0)
        assert [center for _, _, _, _, center, _ in log] == [True]

    def test_one_unit_walk_for_maxwell(self, recorded):
        # every Maxwell soliton outside r_c is the unit twin's from (1, 1),
        # dilated by r_c: one walk, of both the stress rows and phi's
        energetics._unit_record.cache_clear()
        log = recorded(energetics, "_walk")
        rng = np.random.default_rng(26)
        for log_e, t in rng.uniform((-100.0, 0.0), (100.0, 1.0), (20, 2)):
            e, r_c = 10.0**log_e, 10.0 ** (0.5 * log_e + 150.0 * (2.0 * t - 1.0))  # D in 1e+-300
            s, U = stress_integrals(maxwell(), e, spec_at(r_c)), e * e / (2 * r_c)
            assert abs(s.U_total / U - 1) <= 4.5e-16 and abs(s.laue_trace / -U - 1) <= 4.5e-16
            assert total_energy(maxwell(), e, spec_at(r_c))[0] == s.U_total
            assert abs(potential_at(maxwell(), e, r_c) / (e / r_c) - 1) <= 4.5e-16
        assert energetics._unit_record.cache_info().misses == 1
        assert [center for _, _, _, _, center, _ in log] == [False]

    @pytest.mark.parametrize("m", [BI, POLY, POLY_XI, POLY_STIFF_XI, maxwell(),
                                   polynomial(beta=0.1)],
                             ids=["born_infeld", "polynomial", "polynomial_xi",
                                  "polynomial_stiff_xi", "maxwell", "linear_polynomial"])
    def test_equals_cold_caches(self, m):
        # a linear map's outputs outside a cutoff, and the partials and radii
        # of its diverging center
        cutoff = R0 if constitutive._shape(m).scale is None else None

        def outputs():
            s = stress_integrals(m, K.e, spec_at(cutoff))
            out = [s.U_total, s.laue_trace, s.quad_error, *total_energy(m, K.e, spec_at(cutoff)),
                   potential_at(m, K.e, cutoff or 0.0)]
            if cutoff is not None:
                for f in (total_energy, lambda m, e: potential_at(m, e, 0.0)):
                    with pytest.raises(Divergent) as exc_info:
                        f(m, K.e)
                    out += exc_info.value.details["partials"] + exc_info.value.details["inner_limits"]
            return np.array(out)

        born_infeld_energy_constant()  # born-infeld's record, walked for another member
        outputs()
        warm = outputs()
        cold_caches()
        assert outputs().tobytes() == warm.tobytes()


class TestVonLaue:
    """The integrated stress trace of a finite-energy static soliton
    vanishes (von Laue; Derrick, J. Math. Phys. 5, 1252, 1964): a
    model-independent oracle over the polynomial plane, without a cutoff."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=PLANE)
    @example(m=two_term_polynomial(24))
    @example(m=two_term_polynomial(25))
    @example(m=two_term_polynomial(26))
    @example(m=two_term_polynomial(28))
    def test_trace_vanishes_on_the_plane(self, m):
        assume(attainable_displacement_max(m) == np.inf)  # a fold has no energy without a cutoff
        s = stress_integrals(m, K.e)
        assert abs(s.laue_trace) <= 1e-13 * s.U_total


class TestWork:
    """What an energy call costs: no QUADPACK, no inversion at a node."""

    @pytest.mark.parametrize("name", list(CASES))
    def test_needs_no_quadpack(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        monkeypatch.setattr(quadrature, "quad", refuse, raising=False)
        m, cutoff = CASES[name]
        assert np.isfinite(stress_integrals(m, K.e, spec_at(cutoff)).U_total)
        assert np.isfinite(total_energy(m, K.e, spec_at(cutoff))[0])

    def test_import_leaves_scipy_integrate_out(self):
        # no scipy module at all behind import nled and every name it exports
        code = ("import sys, nled; [getattr(nled, name) for name in nled.__all__]; "
                "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", list(CASES))
    def test_inversions_per_call(self, name, monkeypatch):
        calls = []

        def counting(m, d):
            calls.append(d)
            return field_from_displacement(m, d)

        monkeypatch.setattr(energetics, "field_from_displacement", counting)
        m, cutoff = CASES[name]
        stress_integrals(m, K.e, spec_at(cutoff))
        assert len(calls) == (0 if cutoff is None else 1)

    @pytest.mark.parametrize("m, cutoff", [(LS, None), (polynomial(alpha=-0.01, xi=0.001), None),
                                           (LS, R0)],
                             ids=["log_model", "folded_polynomial", "cutoff_below_fold"])
    def test_fold_has_no_solution(self, m, cutoff):
        with pytest.raises(NoSolution) as exc_info:
            total_energy(m, K.e, spec_at(cutoff))
        details = exc_info.value.details
        assert details["radius_cm"] == np.sqrt(K.e / attainable_displacement_max(m))
        assert details["D"] > details["D_max_attainable"]


def walk_outputs(m, cutoff):
    """(U, trace, quad_error/U, phi) from the walk: the stress integrals
    with the cutoff, and phi at the cutoff, or without one at the radial
    scale and, for born-infeld, at the center."""
    s = stress_integrals(m, K.e, spec_at(cutoff))
    phi = [potential_at(m, K.e, cutoff or radial_scale(m, K.e))]
    if cutoff is None and m.kind == "born-infeld":
        phi.append(potential_at(m, K.e, 0.0))
    return s.U_total, s.laue_trace, s.quad_error / s.U_total, np.array(phi)


def profile_outputs(m):
    """(phi, stress check) of 400-point profiles on the default log grid and
    on a linear grid over [0.01, 10] radial scales, trimmed at a fold."""
    r_s = radial_scale(m, K.e)
    profiles = [compute_profile(m, K.e), compute_profile(m, K.e, linear_grid(1e-2 * r_s, 10 * r_s))]
    return [p.phi for p in profiles], [check_stress_divergence(p) for p in profiles]


def walked(outputs, m, cutoff):
    """outputs() for a layout fixture, which clears the unit records on entry:
    a walk from the unit point, without a cutoff or of a linear map, must run
    once, under the fixture's layout, instead of reading a record walked
    under the default one."""
    def run():
        result = outputs()
        if cutoff is None or constitutive._shape(m).scale is None:
            assert energetics._unit_record.cache_info().misses == 1
        return result
    return run


def assert_agrees_with_floor_layout(floor_layout, m, cutoff):
    (U, trace, _, phi), (U_ref, trace_ref, _, phi_ref) = (
        walk_outputs(m, cutoff), floor_layout(walked(lambda: walk_outputs(m, cutoff), m, cutoff)))
    assert abs(U - U_ref) <= 1e-14 * abs(U_ref)
    assert abs(trace - trace_ref) <= 1e-14 * abs(U_ref)
    assert_allclose(phi, phi_ref, rtol=1e-14)


def assert_agrees_with_full_order(full_order, m, cutoff):
    def outputs():
        return walk_outputs(m, cutoff), profile_outputs(m)
    ((U, trace, err, phi), (phis, checks)), ((U_ref, trace_ref, err_ref, phi_ref),
                                             (phis_ref, checks_ref)) = (
        outputs(), full_order(walked(outputs, m, cutoff)))
    assert abs(U - U_ref) <= 1e-14 * abs(U_ref)
    assert abs(trace - trace_ref) <= 1e-14 * abs(U_ref)
    assert abs(err - err_ref) <= 1e-14
    for got, ref in zip([phi, *phis], [phi_ref, *phis_ref]):
        assert_allclose(got, ref, rtol=1e-14)
    assert_allclose(checks, checks_ref, rtol=0.0, atol=1e-14)


def plane_cutoff(m):
    """Twice the fold radius of a folding map, else no cutoff."""
    d_max = attainable_displacement_max(m)
    return 2 * np.sqrt(K.e / d_max) if np.isfinite(d_max) else None


class TestPanelLayout:
    """Panels as wide as each map's nearest complex singularity allows, and
    on each segment as few Gauss points as that distance allows, give the
    walk's outputs of the 0.5-wide and of the 16-point layouts to 1e-14,
    for fewer nodes."""

    @pytest.mark.parametrize("name", list(CASES))
    def test_agrees_with_floor_layout(self, name, floor_layout):
        m, cutoff = CASES[name]
        assert_agrees_with_floor_layout(floor_layout, m, cutoff)
        phi = compute_profile(m, K.e).phi
        assert_allclose(phi, floor_layout(lambda: compute_profile(m, K.e).phi), rtol=1e-14)

    @pytest.mark.parametrize("name", list(CASES))
    def test_agrees_with_full_order(self, name, full_order):
        assert_agrees_with_full_order(full_order, *CASES[name])

    # floor_layout and full_order patch only inside each call, so they hold
    # nothing between inputs
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=PLANE)
    def test_polynomial_plane_agrees_with_floor_layout(self, m, floor_layout):
        assert_agrees_with_floor_layout(floor_layout, m, plane_cutoff(m))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=PLANE)
    # zeros of D/E 0.43 off the axis, nearer than the 0.5 floor the orders are sized on
    @example(m=polynomial(alpha=-1.3 * np.sqrt(24 * np.pi * 1e-3) / (16 * np.pi), xi=1e-3))
    def test_polynomial_plane_agrees_with_full_order(self, m, full_order):
        assert_agrees_with_full_order(full_order, m, plane_cutoff(m))

    def test_born_infeld_node_count(self, recorded):
        # one 16-point panel per anchor step, against four at the floor width
        # (5 095 nodes)
        energetics._unit_record.cache_clear()  # walk, rather than read the record
        log = recorded(constitutive, "_search_walk")
        stress_integrals(BI, K.e)
        assert 0 < sum(np.size(delta) for *_, delta in log) <= 1400

    @pytest.mark.parametrize("m, most", [(BI, 3300), (maxwell(), 2900), (LS, 2300)],
                             ids=["born_infeld", "maxwell", "log_model"])
    def test_profile_node_count(self, m, most, recorded):
        # 16 points on every segment took 6 750, 6 749 and 4 199 (the log
        # model's count includes ~460 inversion evaluations); ~7 points now
        # span a default log grid's step; the map's Newton-start table is
        # sampled once per map, not per profile
        constitutive._shape(m)
        log = recorded(constitutive, "_search_walk")
        compute_profile(m, K.e)
        assert sum(np.size(delta) for *_, delta in log) <= most


class TestClosingRate:
    """The closing panel below the last anchor assumes an integrand going as
    e^{k x} with k > 0; a tail that ends before that holds raises."""

    def test_tail_ending_where_xi_dominates_raises(self, monkeypatch):
        # with alpha's scale, far above xi's, the tail ends where D ~ E^5 and
        # k = 1 - 5/2; the closing panel then ran upward and gave U = 2.18e-11
        m = POLY_STIFF_XI
        alpha_scale = 1.0 / np.sqrt(16 * np.pi * m.coeffs.alpha)
        shape = constitutive._shape
        for module in (constitutive, energetics):
            monkeypatch.setattr(module, "_shape", lambda m: shape(m)._replace(scale=alpha_scale))
        with pytest.raises(NumericalError) as exc_info:
            stress_integrals(m, 1.0)
        assert exc_info.value.details["rate"] == pytest.approx(-1.5)

    def test_tail_cut_short_raises(self, monkeypatch):
        # 4 below the cutoff the log model's k is ~1e-5 above 1/2 and drifting
        monkeypatch.setattr(constitutive, "_WALK_DEPTH", 4.0)
        m, cutoff = CASES["log_model_cutoff"]
        with pytest.raises(NumericalError) as exc_info:
            stress_integrals(m, K.e, spec_at(cutoff))
        assert exc_info.value.details["rate"] > 0


class TestEffectiveRadius:
    def test_paper_convention_matches_tabulated_value(self):
        r0 = effective_radius("paper", K)
        assert_allclose(r0, 2.25e-13, rtol=1e-3)
        assert abs(r0 / 2.28e-13 - 1) <= 0.015

    def test_energy_consistent_modern(self):
        k = constants("modern")
        r0 = effective_radius("energy-consistent", k)
        assert_allclose(r0, 3.483e-13, rtol=1e-3)
        assert_allclose(r0, C_EXACT * classical_electron_radius(k), rtol=1e-9)

    def test_unknown_convention(self):
        with pytest.raises(ConfigurationError):
            effective_radius("other", K)

    def test_non_finite_energy_model_rejected(self):
        with pytest.raises(UnsupportedModel):
            effective_radius("paper", K, model_kind="maxwell")

    def test_energy_constant_against_gamma_form(self):
        assert_allclose(born_infeld_energy_constant(), C_EXACT, rtol=1e-13)
        assert_allclose(born_infeld_energy_constant(), 1.23605, atol=1e-4)


class TestStressIntegrals:
    def test_born_infeld_trace_vanishes(self):
        s = stress_integrals(BI, K.e)
        assert abs(s.laue_trace) <= 1e-13 * s.U_total
        assert np.all(s.momentum == 0.0)
        assert s.quad_error > 0

    def test_maxwell_cutoff_trace_is_minus_energy(self):
        r_c = 2.0e-13
        s = stress_integrals(maxwell(), K.e, QuadratureSpec(cutoff_r=r_c))
        assert_allclose(s.laue_trace, -K.e**2 / (2 * r_c), rtol=1e-6)
        assert_allclose(s.laue_trace, -s.U_total, rtol=1e-9)

    def test_maxwell_without_cutoff_diverges(self):
        with pytest.raises(Divergent):
            stress_integrals(maxwell(), K.e)


class TestMass:
    def test_energy_consistent_radius_recovers_electron_mass(self):
        k = constants("modern")
        r0 = effective_radius("energy-consistent", k)
        m = born_infeld(k.e / r0**2)
        U, _ = total_energy(m, k.e)
        assert_allclose(U / k.c**2, k.m_e, rtol=1e-4)


class TestStressDivergence:
    def test_born_infeld_profile(self):
        prof = compute_profile(BI, K.e)
        assert check_stress_divergence(prof) <= 1e-12

    def test_maxwell_cutoff_profile(self):
        grid = log_grid(2e-13, 2e-11, 400)
        prof = compute_profile(maxwell(), K.e, grid)
        assert check_stress_divergence(prof) <= 1e-12

    @pytest.mark.parametrize("model, grid", [
        (BI, linear_grid(1e-2 * R0, 10 * R0, 400)),
        (BI, log_grid(1e-4 * R0, 1e4 * R0, 40)),
        (log_schroedinger(E0), None),
        (polynomial(0.01, xi=0.001), None),
        (polynomial(-0.005, xi=0.001), None),
    ], ids=["born_infeld_linear", "born_infeld_40_points", "log_schroedinger",
            "polynomial", "monotone_negative_alpha"])
    def test_conserved_profile(self, model, grid):
        # a stencil scored 0.34, 4.9e-4 and 6.0e-4 on the first three
        assert check_stress_divergence(compute_profile(model, K.e, grid)) <= 1e-12

    def test_one_perturbed_energy_density_is_seen(self):
        prof = compute_profile(polynomial(0.01, xi=0.001), K.e)
        u = prof.u.copy()
        u[200] *= 1 + 1e-8
        assert check_stress_divergence(dataclasses.replace(prof, u=u)) >= 1e-9

    def test_upper_branch_point_scores_inf(self):
        # one E replaced by the upper root of D = E/(1 + E^2/E0^2): E rises outward there
        prof = compute_profile(log_schroedinger(E0), K.e)
        E, i = prof.E.copy(), prof.grid.n // 2
        d = prof.D[i]
        E[i] = E0**2 * (1 + np.sqrt(1 - (2 * d / E0) ** 2)) / (2 * d)
        assert check_stress_divergence(dataclasses.replace(prof, E=E)) == np.inf

    def test_fabricated_nonconserved_profile_scores_order_one(self):
        # constant T_rr != T_thth: d(r^2 T_rr)/dr = 2 r T_rr but 2 r T_thth differs
        r = np.geomspace(1.0, 10.0, 50)
        grid = RadialGrid(r=r)
        c1, c2 = 2.0, 0.5
        ed = 4 * np.pi * (c1 - c2)  # E*D so that T_thth = u - E D/4pi = c2
        E = np.full_like(r, np.sqrt(ed))
        prof = SolitonProfile(grid=grid, D=E.copy(), E=E,
                              rho=np.zeros_like(r), eps=np.ones_like(r),
                              u=np.full_like(r, c1), phi=np.zeros_like(r),
                              r0=1.0, model=maxwell())
        assert check_stress_divergence(prof) >= 0.5
