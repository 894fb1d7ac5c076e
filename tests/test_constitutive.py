import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nled import (ConvergenceFailure, Divergent, NoSolution, QuadratureSpec, UnsupportedModel,
                  attainable_displacement_max, born_infeld, compute_profile, constants,
                  dL_dE, default_grid, displacement_from_field, field_from_displacement,
                  FieldVectors, lagrangian_density, log_schroedinger, maxwell, mie_sqrt,
                  polynomial, potential_at, stress_integrals, total_energy)
from nled import constitutive

import reference
from conftest import PLANE

FOUR_PI = 4 * np.pi
EPS = np.finfo(float).eps
K = constants("historical1934")
E0 = 9.18e15

# D'(E) = 1 + 48 pi alpha E^2 + 120 pi xi E^4 has a double root at alpha_c;
# just beyond it the map folds between two extrema 15 % apart in E
XI = 0.001
ALPHA_C = -np.sqrt(480 * np.pi * XI) / (48 * np.pi)
NARROW = polynomial(alpha=1.01 * ALPHA_C, xi=XI)

WHOLE_RANGE = [
    (maxwell(), 1e300),
    (born_infeld(1.0), 1e300),
    (log_schroedinger(1.0), 0.5),
    (polynomial(alpha=0.01, xi=0.001), 1e60),
    (polynomial(alpha=-0.01, xi=0.001), 1e60),
    (NARROW, 1e60),
    # one coefficient 0: its term must not turn an overflowed power into NaN
    (polynomial(alpha=1e20), 1e300),
    # E^5 alone overflows (E > 4.5e61) below the field where 24 pi xi E^5 does
    (polynomial(xi=1e-200), 1e300),
    # the map peaks where E^p alone overflows (E_peak 8e103 and 2e62)
    (polynomial(alpha=-1e-210), 1e300),
    (polynomial(xi=-1e-250), 1e300),
    # E^3 underflows where 16 pi alpha E^3 still matters (E ~ 1e-150)
    (polynomial(alpha=1e290), 1e300),
    # D/E0 passes 1e308, where E0/hypot(E0, D) is subnormal or 0
    (born_infeld(1e-150), 1e300),
    (born_infeld(2.0**-511), 1e300),
]

# one model of every kind and shape for the property tests
SHAPES = {
    "maxwell": maxwell(),
    "born_infeld": born_infeld(E0),
    "log_model": log_schroedinger(E0),
    "polynomial": polynomial(alpha=0.01, xi=0.001),
    "polynomial_xi": polynomial(xi=0.001),
    "monotone_negative_alpha": polynomial(alpha=-0.005, xi=0.001),
    "folded_polynomial": polynomial(alpha=-0.01, xi=0.001),
    "narrow_fold": NARROW,
    # the xi term is nonlinear far below the alpha scale E_char
    "quartic_dominated": polynomial(alpha=1e-30, xi=1e30),
}


class TestForwardMap:
    def test_maxwell_identity(self):
        assert displacement_from_field(maxwell(), 0.5) == 0.5

    def test_born_infeld_half_radicand(self):
        assert_allclose(displacement_from_field(born_infeld(1.0), 1 / np.sqrt(2)),
                        1.0, rtol=1e-15)

    def test_log_model_peak(self):
        # D = E/(1 + E^2) has its maximum 1/2 at E = 1
        assert_allclose(displacement_from_field(log_schroedinger(1.0), 1.0), 0.5)

    def test_agrees_with_gradient(self):
        for m in (maxwell(), born_infeld(1.0), log_schroedinger(1.0),
                  polynomial(alpha=0.01, xi=0.001)):
            for e_mag in (0.1, 0.4, 0.8):
                g = dL_dE(m, FieldVectors(E=(e_mag, 0, 0), H=(0, 0, 0)))
                assert_allclose(displacement_from_field(m, e_mag),
                                FOUR_PI * np.linalg.norm(g), rtol=1e-14)

    def test_array_input(self):
        out = displacement_from_field(maxwell(), np.array([0.1, 0.2]))
        assert_allclose(out, [0.1, 0.2])

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            displacement_from_field(maxwell(), -1.0)


class TestInversion:
    def test_born_infeld_closed_form_point(self):
        res = field_from_displacement(born_infeld(1.0), 1.0)
        assert_allclose(res.E, 1 / np.sqrt(2), rtol=1e-12)
        assert res.branch == "unique"
        assert res.residual <= 1e-12

    def test_maxwell_identity(self):
        res = field_from_displacement(maxwell(), 3.7)
        assert res.E == 3.7
        assert res.residual == 0.0
        assert res.branch == "unique"

    def test_log_model_no_solution_with_diagnostic(self):
        with pytest.raises(NoSolution) as exc_info:
            field_from_displacement(log_schroedinger(1.0), 0.6)
        err = exc_info.value
        assert err.d_target == 0.6
        assert_allclose(err.d_max_attainable, 0.5, rtol=1e-9)

    def test_log_model_lower_branch(self):
        res = field_from_displacement(log_schroedinger(1.0), 0.3)
        # lower root of E/(1+E^2) = 0.3 is exactly 1/3
        assert_allclose(res.E, 1 / 3, rtol=1e-12)
        assert res.branch == "lower-of-two"

    def test_log_model_boundary_sharpness(self):
        m = log_schroedinger(1.0)
        assert field_from_displacement(m, 0.5 * (1 - 1e-9)).E < 1.0
        with pytest.raises(NoSolution):
            field_from_displacement(m, 0.5 * (1 + 1e-9))

    def test_zero_displacement(self):
        res = field_from_displacement(born_infeld(1.0), 0.0)
        assert res.E == 0.0 and res.iterations == 0

    def test_born_infeld_vs_closed_form_wide_range(self):
        m = born_infeld(1.0)
        for d in np.geomspace(1e-6, 1e6, 121):
            res = field_from_displacement(m, d)
            closed = d / np.sqrt(1 + d * d)
            assert abs(res.E / closed - 1) <= 1e-12
            assert res.residual <= 1e-12

    @pytest.mark.parametrize("model", [
        maxwell(), born_infeld(1.0), polynomial(alpha=0.02, xi=0.001),
    ])
    def test_round_trip_monotone_models(self, model):
        for e_mag in np.geomspace(1e-6, 0.999999, 60):
            d = displacement_from_field(model, e_mag)
            res = field_from_displacement(model, d)
            assert abs(res.E / e_mag - 1) <= 1e-10
            assert res.branch == "unique"

    def test_round_trip_log_model_lower_branch(self):
        m = log_schroedinger(1.0)
        for e_mag in np.geomspace(1e-6, 1.0, 40):
            d = displacement_from_field(m, e_mag)
            res = field_from_displacement(m, d)
            assert abs(res.E / e_mag - 1) <= 1e-9

    def test_attainable_maximum(self):
        assert attainable_displacement_max(maxwell()) == np.inf
        assert attainable_displacement_max(born_infeld(1.0)) == np.inf
        assert_allclose(attainable_displacement_max(log_schroedinger(2.0)),
                        1.0, rtol=1e-9)

    def test_no_map_is_unsupported(self):
        # a kind with no constitutive map is not an unbounded one
        with pytest.raises(UnsupportedModel):
            attainable_displacement_max(mie_sqrt())

    def test_coulomb_deviation_full_precision(self):
        # v = 1 - E/D: in the far tail (small D/E0) v ~ D^2/2 is many orders
        # below 1 and must carry full relative precision, not the
        # absolute-epsilon noise of recomputing 1 - E/D from rounded values.
        for d in (1e-4, 1e-6):
            res = field_from_displacement(born_infeld(1.0), d)
            root = np.sqrt(1 + d * d)
            exact_v = d * d / (root * (1 + root))
            assert_allclose(res.coulomb_deviation, exact_v, rtol=1e-12)
        # near the center v -> 1
        res = field_from_displacement(born_infeld(1.0), 1e4)
        assert_allclose(res.coulomb_deviation, 1 - 1 / np.sqrt(1 + 1e8),
                        rtol=1e-12)

    def test_iterations_reported(self):
        res = field_from_displacement(born_infeld(1.0), 123.456)
        assert res.iterations > 0

    @pytest.mark.parametrize("model, d_top", WHOLE_RANGE)
    def test_round_trip_whole_range(self, model, d_top):
        # every D inverts with a small residual, or is above the attainable
        # maximum; the solver itself never gives up
        d_max = attainable_displacement_max(model)
        for d in np.append(np.geomspace(1e-300, d_top, 601), 1.5 * d_top):
            try:
                res = field_from_displacement(model, d)
            except ConvergenceFailure:
                pytest.fail(f"ConvergenceFailure at D = {d!r}")
            except NoSolution:
                assert d > d_max
                continue
            assert res.residual <= 1e-12
            if model.kind == "born-infeld":  # the closed-form inverse in 40 digits
                assert abs(res.E / reference.field(model, d) - 1) <= 1e-15
            else:
                assert abs(reference.D(model, res.E) / d - 1) <= 1e-12

    @pytest.mark.parametrize("excess", [2e-16, 1e-13])
    def test_peak_band_returns_peak(self, excess):
        # D accepted just above D_max used to leave the bracket, capped at the
        # peak, without a sign change
        m = log_schroedinger(1.0)
        res = field_from_displacement(m, attainable_displacement_max(m) * (1.0 + excess))
        assert res.branch == "unique"
        assert res.residual <= 1e-12
        assert_allclose(res.E, 1.0, rtol=1e-9)  # the peak is at E = E0

    @pytest.mark.parametrize("model, d", [(polynomial(alpha=1e20), 5.0e206),
                                          (polynomial(xi=1e-200), 2.5e110)])
    def test_root_above_power_overflow(self, model, d):
        # both roots lie above E = 4.5e61, where E^5 overflows; they used to
        # raise ConvergenceFailure
        res = field_from_displacement(model, d)
        assert res.E > 4.5e61
        assert res.residual <= 1e-12
        assert abs(reference.D(model, res.E) / d - 1) <= 1e-14

    def test_polynomial_bracket_starts_where_map_is_finite(self):
        # the first bracket point used to be E = D, where E^5 overflows
        m = polynomial(alpha=0.01, xi=0.001)
        res = field_from_displacement(m, 1e70)
        assert res.residual <= 1e-12
        assert_allclose(displacement_from_field(m, res.E), 1e70, rtol=1e-12)


class TestMapAlgebra:
    """The point form of the kinds walked in ln E: D, d ln D/d ln E,
    v = 1 - E/D and 1 - d ln E/d ln D within a few ulp of 40-digit
    references, from 1e-150 E_c up to 0.9 of the peak field (or to the
    largest field where D is finite)."""

    @pytest.mark.parametrize("m", [m for m, _ in WHOLE_RANGE
                                   if m.kind in ("log-schroedinger", "polynomial")])
    def test_against_references(self, m):
        shape = constitutive._shape(m)
        E = np.geomspace(1e-150 * shape.scale,
                         min(0.9 * shape.E_peak, shape.E_top), 121)
        D = displacement_from_field(m, E)
        got = (D, constitutive._search_walk(m, D, E, 0.0)[2],
               constitutive._coulomb_deviation(m, E, D), constitutive._charge_factor(m, E, D))
        for i, e in enumerate(E):
            want_terms = reference.map_terms(m, e)
            for name, value, want in zip(("D", "slope", "v", "factor"), got, want_terms):
                # eight ulp, and a few subnormal steps where a term underflows
                assert abs(value[i] - float(want)) <= 8 * EPS * abs(want) + 4 * 2.0**-1074, \
                    (name, e)

    def test_tail_deviation_keeps_its_power(self):
        # h = a + x goes as E^2; 16 pi alpha E^3 underflowed here, and v read 0.0
        res = field_from_displacement(polynomial(alpha=1.0), 1e-120)
        assert abs(res.coulomb_deviation / (16 * np.pi * 1e-240) - 1) <= 1e-15

    def test_displacement_past_the_fold(self):
        # D = E g: E + E h would cancel to 0 this far past the log model's fold
        assert abs(displacement_from_field(log_schroedinger(1.0), 1e10) / 1e-10 - 1) <= 1e-15


def kernel_outcome(model, D):
    """constitutive._invert's output, or its error as (class, message, details)."""
    try:
        return constitutive._invert(model, D)
    except (NoSolution, ConvergenceFailure) as exc:
        return type(exc), str(exc), exc.details


class TestKernel:
    """The array inversion behind field_from_displacement and the profiles."""

    # the zero polynomial's _map_terms are bare floats; v keeps E's shape
    @pytest.mark.parametrize("model, d_top", WHOLE_RANGE + [(polynomial(), 1e300)])
    def test_array_equals_per_point(self, model, d_top):
        D = np.geomspace(1e-300, d_top, 601)
        D = D[D <= attainable_displacement_max(model)]
        E, evals, residual, lower = constitutive._invert(model, D)
        points = [field_from_displacement(model, d) for d in D]
        for got, want in [(E, [p.E for p in points]),
                          (constitutive._coulomb_deviation(model, E, D),
                           [p.coulomb_deviation for p in points]),
                          (residual, [p.residual for p in points])]:
            assert got.tobytes() == np.array(want).tobytes()
        assert evals.tolist() == [p.iterations for p in points]
        assert lower.tolist() == [p.branch == "lower-of-two" for p in points]
        # a 0-d D (field_from_displacement's call) equals the one-element array
        # call bit for bit, the peak band at D_max (1 +- 1e-13) and above it included
        d_max = attainable_displacement_max(model)
        band = [d_max * f for f in (1 - 1e-13, 1.0, 1 + 1e-13, 1 + 2e-13)]
        for d in np.append(D, band if np.isfinite(d_max) else []):
            zero_d, one = kernel_outcome(model, np.float64(d)), kernel_outcome(model, np.array([d]))
            if isinstance(one[0], type):  # the same error, message and details
                assert zero_d == one and (d > d_max) == (one[0] is NoSolution)
                continue
            assert all(np.ndim(a) == 0 for a in zero_d), d
            assert [np.asarray(a).tobytes() for a in zero_d] == [a.tobytes() for a in one], d

    @pytest.mark.parametrize("cap, limit", [(2, constitutive.RESIDUAL_LIMIT), (200, -1.0)],
                             ids=["evaluation_cap", "residual_limit"])
    def test_zero_d_fails_as_one_element(self, cap, limit, monkeypatch):
        # both ConvergenceFailure paths name the same D (and residual) for a
        # 0-d D as for the one-element array; born-infeld starts at its root,
        # so it never reaches the evaluation cap
        monkeypatch.setattr(constitutive, "_MAX_EVALS", cap)
        monkeypatch.setattr(constitutive, "RESIDUAL_LIMIT", limit)
        skip = ("maxwell", "born-infeld") if cap == 2 else ("maxwell",)
        for model in [m for m, _ in WHOLE_RANGE if m.kind not in skip]:
            for f in (1e-3, 0.3, 0.9):
                d = f * min(attainable_displacement_max(model), constitutive._shape(model).scale)
                zero_d = kernel_outcome(model, np.float64(d))
                assert zero_d[0] is ConvergenceFailure, (model, d)
                assert zero_d == kernel_outcome(model, np.array([d]))

    @pytest.mark.parametrize("name", list(SHAPES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(decades=st.floats(-150.0, 150.0))
    def test_round_trip(self, name, decades):
        # D -> E -> D across 300 decades around the characteristic field,
        # the way back in 40 digits
        m = SHAPES[name]
        d = 10.0**decades * (constitutive._shape(m).scale or 1.0)
        d_max = attainable_displacement_max(m)
        try:
            res = field_from_displacement(m, d)
        except NoSolution:
            assert d > d_max * (1 + 1e-13)
            return
        assert res.residual <= 1e-12
        assert (res.branch == "lower-of-two") == (d < d_max * (1 - 1e-12) < np.inf)
        if m.kind == "born-infeld":
            # D(E) is too steep near E0 to come back through E: compare E
            # with the exact inverse E0 D / sqrt(E0^2 + D^2) instead
            assert abs(res.E / reference.field(m, d) - 1) <= 1e-15  # a few roundings
        else:
            assert abs(reference.D(m, res.E) / d - 1) <= 1e-14


class TestMaxwellIsTheZeroPolynomial:
    """maxwell() runs the polynomial path with every coefficient 0: each
    output is polynomial()'s, bit for bit, and only the kind tag differs."""

    M, P = maxwell(), polynomial()
    R = 2.82e-13  # cm, about the classical electron radius

    def test_profile_columns(self):
        grid = default_grid(self.R)
        a, b = compute_profile(self.M, K.e, grid), compute_profile(self.P, K.e, grid)
        for name in ("D", "E", "rho", "eps", "u", "phi"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_stress_integrals_with_a_cutoff(self):
        quad = QuadratureSpec(cutoff_r=2 * self.R)
        a, b = stress_integrals(self.M, K.e, quad), stress_integrals(self.P, K.e, quad)
        assert (a.U_total, a.laue_trace, a.quad_error) == (b.U_total, b.laue_trace, b.quad_error)

    def test_divergent_partials(self):
        details = []
        for m in (self.M, self.P):
            with pytest.raises(Divergent, match=f"^{m.kind}: ") as info:
                total_energy(m, K.e)
            details.append(info.value.details)
        assert details[0] == details[1]

    @pytest.mark.parametrize("r", [1e-14, 1e-12])
    def test_potential(self, r):
        assert potential_at(self.M, K.e, r) == potential_at(self.P, K.e, r)

    @pytest.mark.parametrize("d", [1e-300, 1.0, 1e300])
    def test_inversion(self, d):
        assert field_from_displacement(self.M, d) == field_from_displacement(self.P, d)

    def test_density_and_gradient(self):
        rng = np.random.default_rng(29)
        F = FieldVectors(E=rng.normal(size=(40, 3)), H=rng.normal(size=(40, 3)))
        for f in (lagrangian_density, dL_dE):
            assert f(self.M, F).tobytes() == f(self.P, F).tobytes()


class TestNewtonStart:
    """The ln E kinds start Newton from a per-map table of forward-map
    samples; a start at E = D took up to 7 evaluations."""

    @pytest.mark.parametrize("m, mean, most", [
        (log_schroedinger(1.0), 3.05, 5),  # 3.375 and 7 from E = D
        (polynomial(alpha=0.01, xi=0.001), 3.5, 5),  # 4.65 and 7
        (polynomial(alpha=-0.005, xi=0.001), 3.5, 5),  # 4.49 and 7
    ], ids=["log_model", "polynomial", "fold"])
    def test_profile_evaluations(self, m, mean, most):
        prof = compute_profile(m, 1.0)
        evals = constitutive._invert(m, prof.D)[1]
        assert evals.mean() <= mean and evals.max() <= most

    @pytest.mark.parametrize("m, D, most", [
        (log_schroedinger(1.0), 0.25, 4),  # 5 from E = D
        (polynomial(alpha=0.01, xi=0.001), 3.0, 5),  # 7
    ], ids=["log_model", "polynomial"])
    def test_scalar_evaluations(self, m, D, most):
        assert field_from_displacement(m, D).iterations <= most

    @pytest.mark.parametrize("m", [m for m, _ in WHOLE_RANGE
                                   if m.kind in ("log-schroedinger", "polynomial")])
    def test_table(self, m):
        # every _START_STEP or less in ln E from _WALK_DEPTH below the scale
        # up to the solver's top, rising in ln D, taken from the forward map;
        # polynomial(alpha=2e306), about the widest span accepted, takes 6 318
        shape = constitutive._shape(m)
        ln_D, ln_E = shape.start
        top = min(shape.E_peak, shape.E_top)
        span = 40.0 + np.log(top / shape.scale)
        assert ln_D.size <= 16.0 * span + 2 and ln_D.size <= 6400
        assert_allclose(ln_E[[0, -1]], [np.log(shape.scale) - 40.0, np.log(top)], rtol=1e-13)
        assert np.all(np.diff(ln_E) <= (1.0 + 1e-12) / 16.0) and np.all(np.diff(ln_D) > 0.0)
        assert_allclose(ln_D, np.log(displacement_from_field(m, np.exp(ln_E))), rtol=1e-14)

    @pytest.mark.parametrize("m", [born_infeld(1.0), maxwell()], ids=["born_infeld", "maxwell"])
    def test_no_table(self, m):
        assert constitutive._shape(m).start is None


class TestNarrowFold:
    """A fold whose two extrema lie 15 % apart in E: the map shape must come
    from the closed-form roots of D'(E), not from sampling."""

    def test_peak_in_closed_form(self):
        d_max = attainable_displacement_max(NARROW)
        e_peak, _ = reference.extrema(NARROW)
        assert np.isfinite(d_max)
        res = field_from_displacement(NARROW, d_max)  # the band at D_max returns the peak
        assert_allclose(res.E, 1.18914, rtol=1e-5)
        assert abs(res.E / e_peak - 1) <= 1e-14
        assert abs(d_max / reference.D(NARROW, e_peak) - 1) <= 1e-14

    def test_between_extrema_takes_lower_branch(self):
        e_peak, e_min = reference.extrema(NARROW)
        d_hi, d_lo = float(reference.D(NARROW, e_peak)), float(reference.D(NARROW, e_min))
        for d in np.linspace(d_lo, d_hi, 9)[1:-1]:
            res = field_from_displacement(NARROW, d)
            assert res.branch == "lower-of-two"
            assert res.E < e_peak
            assert abs(reference.D(NARROW, res.E) / d - 1) <= 1e-14

    def test_profile_trims_at_fold(self):
        prof = compute_profile(NARROW, K.e)
        d_max = attainable_displacement_max(NARROW)
        assert prof.inversion_failed_below_r == np.sqrt(K.e / d_max)
        assert np.all(prof.E <= float(reference.extrema(NARROW)[0]))

    def test_energy_without_cutoff_has_no_solution(self):
        with pytest.raises(NoSolution) as exc_info:
            total_energy(NARROW, K.e)
        d_max = attainable_displacement_max(NARROW)
        assert exc_info.value.details["radius_cm"] == np.sqrt(K.e / d_max)


class TestOverflowSafeFold:
    """Folds whose 48 pi |alpha| or (48 pi alpha)^2 overflows a double."""

    @pytest.mark.parametrize("m", [polynomial(alpha=-2e306), polynomial(alpha=-1e200, xi=1e-10)],
                             ids=["48_pi_alpha_overflows", "its_square_overflows"])
    def test_fold_found(self, m):
        e_peak = reference.extrema(m)[0]
        d_max = attainable_displacement_max(m)
        assert abs(d_max / reference.D(m, e_peak) - 1) <= 1e-14
        for d in (1.01 * d_max, 1e-100):
            with pytest.raises(NoSolution):
                field_from_displacement(m, d)
        for d in d_max * np.array([1e-6, 0.5, 0.99]):
            res = field_from_displacement(m, d)
            assert res.branch == "lower-of-two"
            assert res.E < e_peak  # the rising branch
            assert abs(reference.D(m, res.E) / d - 1) <= 1e-14


def width_mp(m):
    """The panel width from the reference's zeros t of D/E in E^2: half the
    smallest |arg t|, clipped to [0.5, 2]."""
    distance = min(abs(np.angle(complex(t))) for t in reference.zeros(m)) / 2
    return min(max(distance, 0.5), 2.0)


class TestPanelWidth:
    """The walk's panels are as wide as each map's nearest complex
    singularity allows, from 0.5 to one anchor step of 2."""

    @pytest.mark.parametrize("m, width", [
        (born_infeld(E0), 2.0),  # w = +-i pi
        (log_schroedinger(E0), np.pi / 2),  # ln E = ln E0 +- i pi/2
        (maxwell(), 2.0),  # no singularity
        (polynomial(alpha=0.01), np.pi / 2),  # one negative zero of D/E in E^2
        (polynomial(alpha=-0.01), 0.5),  # a positive zero: the floor
        (polynomial(xi=0.001), np.pi / 4),
        # zeros of D/E at (-b +- i sqrt(4c - b^2))/2c, b = 16 pi alpha, c = 24 pi xi
        (polynomial(alpha=-0.005, xi=0.001),
         0.5 * np.arctan2(np.sqrt(96 * np.pi * 0.001 - (0.08 * np.pi) ** 2), 0.08 * np.pi)),
    ], ids=["born_infeld", "log_model", "maxwell", "alpha", "negative_alpha", "xi",
            "monotone_negative_alpha"])
    def test_closed_forms(self, m, width):
        assert_allclose(constitutive._shape(m).width, width, rtol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=PLANE)
    def test_against_polyroots(self, m):
        assert_allclose(constitutive._shape(m).width, width_mp(m), rtol=1e-12)


def naive_walk_nodes(steps, width, ends, rules):
    """constitutive._walk_nodes by one loop per segment, panel and node: each
    segment takes the fewest points n in [4, 16] whose Bernstein-ellipse
    bound rho^-2n is at most 1e-20, rho = z + sqrt(z^2 + 1) with z = 2 width/h
    on its panels of width h (4 on a zero-width segment)."""
    n, nodes = steps.size, []
    for r in range(rules):
        for j, step in enumerate(steps):
            panels = max(math.ceil(step / width), 1)
            h = step / panels
            order = 4
            if h > 0:
                z = 2 * width / h
                order = min(max(math.ceil(math.log(1e20) / (2 * math.log(z + math.sqrt(z * z + 1)))),
                                4), 16)
            x, v = np.polynomial.legendre.leggauss(order - r)
            nodes += [(j + 1, p * h + h * t, h * w, r * (n + 2) + j)
                      for p in range(panels) for t, w in zip(0.5 * (x + 1.0), 0.5 * v)]
        x, v = np.polynomial.legendre.leggauss(24 - r)
        nodes += [(anchor, np.log(s) / k, w / (abs(k) * s), r * (n + 2) + n + i)
                  for i, (anchor, k) in enumerate(ends) for s, w in zip(0.5 * (x + 1.0), 0.5 * v)]
    return tuple(np.array(a) for a in zip(*nodes))


class TestWalkNodes:
    """The walk's node builder: every segment's own Gauss order, gathered in
    one vectorized pass, equals the per-segment construction."""

    @staticmethod
    def draw(seed):
        """Steps of a 60-point linear grid in ln D (from ~5 down to ~0.02),
        random steps up to 6, one zero-width step; a panel width in
        [0.5, 2]; two closing ends of either sign."""
        rng = np.random.default_rng(seed)
        r = np.linspace(0.01, 10.0, 60)
        steps = np.concatenate([2.0 * np.log(r[1:] / r[:-1]), rng.uniform(0.0, 6.0, 40), [0.0]])
        rng.shuffle(steps)
        n = steps.size
        ends = ((n, float(rng.uniform(0.1, 2.0))), (0, -float(rng.uniform(0.1, 2.0))))
        return steps, float(rng.uniform(0.5, 2.0)), ends

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rules", [1, 2])
    def test_equals_per_segment_loop(self, seed, rules):
        steps, width, ends = self.draw(seed)
        want = naive_walk_nodes(steps, width, ends, rules)
        for _ in range(2):  # the second call scales the layout cached by the first
            hits = constitutive._layout.cache_info().hits
            got = constitutive._walk_nodes(steps, width, ends, rules)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert constitutive._layout.cache_info().hits == hits + 1

    def test_reference_layouts_are_fresh(self, full_order, floor_layout, recorded):
        # the layout cache is keyed on each segment's panel count and order,
        # so the 16-point and the 0.5-wide references never replay the default
        steps, width, ends = self.draw(0)
        n, panels = steps.size, np.maximum(np.ceil(steps / width), 1)
        constitutive._walk_nodes(steps, width, ends, 1)
        bins = full_order(lambda: constitutive._walk_nodes(steps, width, ends, 1))[3]
        assert_array_equal(np.bincount(bins, minlength=n + 2)[:n], 16 * panels)
        log = recorded(constitutive, "_layout")
        for run in (lambda f: f(), floor_layout):
            run(lambda: compute_profile(born_infeld(E0), K.e))
        default, floor = (np.frombuffer(panel_counts, dtype=int) for panel_counts, *_ in log)
        assert floor.sum() > default.sum()

    @pytest.mark.parametrize("seed", range(5))
    def test_each_segment_rule(self, seed):
        steps, width, ends = self.draw(seed)
        n = steps.size
        anchor, offset, weight, bins = constitutive._walk_nodes(steps, width, ends, 2)
        panels = np.maximum(np.ceil(steps / width), 1)
        counts = np.bincount(bins, minlength=2 * (n + 2)).reshape(2, n + 2)[:, :n]
        order, lower = counts / panels
        assert_array_equal(lower, order - 1)
        assert np.all((order >= 4) & (order <= 16))
        h = steps / panels
        by_width = np.argsort(h, kind="stable")
        assert np.all(np.diff(order[by_width]) >= 0)  # never rises as h falls
        assert order[steps == 0.0].tolist() == [4]
        assert np.all(np.isfinite(offset)) and np.all(np.isfinite(weight))
        inner = bins % (n + 2) < n
        seg = bins[inner] % (n + 2)
        assert_array_equal(anchor[inner], seg + 1)
        assert np.all((offset[inner] >= 0.0) & (offset[inner] <= steps[seg]))
        for rule, points in enumerate((order, lower)):
            rows = bins[inner] // (n + 2) == rule
            x, w, j = offset[inner][rows], weight[inner][rows], seg[rows]
            assert_allclose(np.bincount(j, weights=w, minlength=n), steps, rtol=1e-14)
            # exact for x^(2 n_j - 1): int_0^step = step^(2 n_j)/(2 n_j)
            p = 2 * points[j] - 1
            assert_allclose(np.bincount(j, weights=w * x**p, minlength=n),
                            steps ** (2 * points) / (2 * points), rtol=1e-13)
