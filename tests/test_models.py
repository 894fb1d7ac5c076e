import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ConfigurationError, DomainExceeded, FieldVectors, PolynomialCoeffs,
                  born_infeld, dL_dE, displacement_from_field, field_from_displacement,
                  lagrangian_density, log_schroedinger, maxwell, model_from_config, polynomial,
                  taylor_reference)
from nled import constitutive
from nled.models import KINDS, _dL_dI, _field_scales, _term, density_from_invariants

import reference

EIGHT_PI = 8 * np.pi


def F(E, H=(0, 0, 0)):
    return FieldVectors(E=np.asarray(E, float), H=np.asarray(H, float))


class TestDensity:
    def test_maxwell_unit_field(self):
        assert_allclose(lagrangian_density(maxwell(), F((1, 0, 0))), 1 / EIGHT_PI)

    def test_born_infeld_limiting_field(self):
        # radicand reaches zero exactly at |E| = E0
        assert_allclose(lagrangian_density(born_infeld(1.0), F((1, 0, 0))),
                        1 / (4 * np.pi))

    def test_born_infeld_weak_field_is_maxwell(self):
        # second-order relative deviation is E^2/(4 E0^2) = 2.5e-7 at E = 1e-3
        L = lagrangian_density(born_infeld(1.0), F((1e-3, 0, 0)))
        dev = abs(L / (1e-6 / EIGHT_PI) - 1)
        assert dev <= 2.6e-7
        assert_allclose(dev, 2.5e-7, rtol=1e-2)

    def test_born_infeld_domain_error(self):
        with pytest.raises(DomainExceeded):
            lagrangian_density(born_infeld(1.0), F((1.5, 0, 0)))

    def test_log_model_value_and_domain(self):
        L = lagrangian_density(log_schroedinger(1.0), F((1, 0, 0)))
        assert_allclose(L, np.log(2) / EIGHT_PI)
        with pytest.raises(DomainExceeded):
            lagrangian_density(log_schroedinger(1.0), F((0, 0, 0), (2, 0, 0)))

    def test_polynomial_terms(self):
        m = polynomial(alpha=0.5, beta=0.25, gamma=0.1, xi=0.01, zeta=0.001)
        Fv = F((1, 0, 0), (0.5, 0, 0))  # I1 = 0.75, I2 = 0.5
        i1, i2 = 0.75, 0.5
        expected = (i1 / EIGHT_PI + 0.5 * i1**2 + 0.25 * i2**2 + 0.1 * i1 * i2
                    + 0.01 * i1**3 + 0.001 * i1 * i2**2)
        assert_allclose(lagrangian_density(m, Fv), expected, rtol=1e-15)

    @pytest.mark.parametrize("model, i1", [
        # alpha I1^2 = 1e246 with I1^2 overflowing; the zero xi term used to
        # turn its overflowed I1^3 into NaN
        (polynomial(alpha=1e-250), 1e248),
        (polynomial(xi=1e-250), -1e120),
        # alpha I1^2 = 1e-80 with I1^2 underflowing to 0
        (polynomial(alpha=1e250), 1e-165),
    ], ids=["alpha", "xi", "alpha_underflow"])
    def test_polynomial_power_overflow(self, model, i1):
        want = reference.L(model, i1, 0.0)  # 40 digits
        assert_allclose(density_from_invariants(model, i1, 0.0), float(want), rtol=1e-15)

    @pytest.mark.parametrize("model", [maxwell(), polynomial()], ids=["maxwell", "polynomial"])
    def test_zero_coefficients_stay_exact_at_overflowing_invariants(self, model):
        # I1 = E^2 overflows: each zero term is an exact 0, never 0 x inf = NaN
        Fv = F((1e160, 0, 0))
        with np.errstate(over="ignore"):  # I1 itself
            L, grad = lagrangian_density(model, Fv), dL_dE(model, Fv)
        assert L == np.inf
        assert grad.tolist() == [2.0 * (1.0 / EIGHT_PI) * 1e160, 0.0, 0.0]

    @pytest.mark.parametrize("model", [maxwell(), polynomial(), polynomial(zeta=1e-300)],
                             ids=["maxwell", "polynomial", "small_zeta"])
    def test_zeta_term_forms_no_overflowing_square(self, model):
        # I2 = E.H = 1e160 is finite and I2^2 is not: zeta I1 I2^2 is formed
        # left to right, exact 0 for zeta = 0 and finite where the term is
        i1, i2 = 1e200 - 1e120, 1e160
        L = lagrangian_density(model, F((1e100, 0, 0), (1e60, 0, 0)))
        assert_allclose(L, i1 / EIGHT_PI + model.coeffs.zeta * i1 * i2 * i2, rtol=1e-15)

    @pytest.mark.parametrize("model", [
        maxwell(), polynomial(0.01, xi=0.001), polynomial(-0.005, 0.3, 0.1, 0.001, 0.2),
        born_infeld(1.0), born_infeld(9.18e15)],
        ids=["maxwell", "polynomial", "every_term", "born_infeld", "born_infeld_e0"])
    def test_walk_sized_arrays_keep_their_bits(self, model):
        # zero terms are skipped and born-infeld's u is formed once: for
        # I1 >= +0 the bits are those of every term added left to right
        rng = np.random.default_rng(12)
        top = 1.0 if model.E0 is None else model.E0**2
        i1 = top * np.append([0.0, 1.0], np.geomspace(1e-300, 1.0, 1332) * rng.random(1332))
        for i2 in [0.0] if model.kind == "born-infeld" else [0.0, 0.1 * i1 * rng.random(i1.size)]:
            if model.kind == "born-infeld":
                u = i1 / model.E0**2 + (i2 / model.E0**2) ** 2
                want = (model.E0**2 / (4 * np.pi)) * u / (1.0 + np.sqrt(1.0 - u))
            else:
                c = model.coeffs
                want = (i1 / EIGHT_PI + _term(c.alpha, i1, i1) + _term(c.beta, i2, i2)
                        + _term(c.gamma, i1, i2) + _term(c.xi, i1, i1, i1)
                        + _term(c.zeta, i1, i2, i2))
            assert density_from_invariants(model, i1, i2).tobytes() == want.tobytes()

    def test_born_infeld_monotone_in_field(self):
        m = born_infeld(1.0)
        mags = np.linspace(0, 0.999999, 200)
        vals = [lagrangian_density(m, F((e, 0, 0))) for e in mags]
        assert np.all(np.diff(vals) > 0)


class TestGradient:
    def test_maxwell_exact(self):
        g = dL_dE(maxwell(), F((0.3, -0.2, 0.5), (1, 2, 3)))
        assert_allclose(g, np.array([0.3, -0.2, 0.5]) / (4 * np.pi), rtol=1e-15)

    def test_born_infeld_half_radicand(self):
        g = dL_dE(born_infeld(1.0), F((1 / np.sqrt(2), 0, 0)))
        assert_allclose(g, [1 / (4 * np.pi), 0, 0], rtol=1e-14)

    def test_gradient_at_boundary_is_domain_error(self):
        with pytest.raises(DomainExceeded):
            dL_dE(born_infeld(1.0), F((1.0, 0, 0)))

    @pytest.mark.parametrize("model", [
        maxwell(),
        born_infeld(1.0),
        log_schroedinger(1.0),
        polynomial(alpha=0.02, beta=0.05, gamma=0.01, xi=0.003, zeta=0.002),
    ])
    def test_matches_central_differences(self, model):
        rng = np.random.default_rng(17)
        h = 1e-6
        for mag in (0.01, 0.1, 0.3, 0.7):
            for _ in range(5):
                e_dir = rng.normal(size=3)
                e_dir /= np.linalg.norm(e_dir)
                h_vec = rng.normal(size=3) * 0.05
                E = mag * e_dir
                g = dL_dE(model, FieldVectors(E=E, H=h_vec))
                fd = np.empty(3)
                for i in range(3):
                    dE = np.zeros(3)
                    dE[i] = h
                    Lp = lagrangian_density(model, FieldVectors(E=E + dE, H=h_vec))
                    Lm = lagrangian_density(model, FieldVectors(E=E - dE, H=h_vec))
                    fd[i] = (Lp - Lm) / (2 * h)
                assert_allclose(g, fd, rtol=1e-6, atol=1e-12)

    def test_polynomial_power_overflow(self):
        # dL/dE = 2 (1/8pi + 3 xi I1^2) E with I1^2 = 1e400 overflowing alone
        g = dL_dE(polynomial(xi=1e-250, zeta=1e-250), F((1e100, 0, 0)))
        assert_allclose(g, [2 * (1 / EIGHT_PI + 3e150) * 1e100, 0, 0], rtol=1e-15)


GRADIENT_MODELS = [
    maxwell(),
    born_infeld(1.0),
    log_schroedinger(1.0),
    polynomial(alpha=0.02, beta=0.05, gamma=0.01, xi=0.003, zeta=0.002),
]


class TestStacks:
    # one call on a stack of field states equals the per-state calls, bit for
    # bit; 3 rows, the stack length that could pass for a vector axis
    @pytest.mark.parametrize("rows", [3, 5])
    @pytest.mark.parametrize("model", GRADIENT_MODELS)
    def test_gradient_and_density_match_rows(self, model, rows):
        E, H = np.random.default_rng(rows).uniform(-0.4, 0.4, (2, rows, 3))
        g = dL_dE(model, FieldVectors(E=E, H=H))
        L = lagrangian_density(model, FieldVectors(E=E, H=H))
        assert g.shape == (rows, 3) and L.shape == (rows,)
        for i in range(rows):
            assert g[i].tobytes() == dL_dE(model, F(E[i], H[i])).tobytes()
            assert L[i] == lagrangian_density(model, F(E[i], H[i]))

    @pytest.mark.parametrize("model, E", [(born_infeld(1.0), 1.0),
                                          (log_schroedinger(1.0), 1.5)])
    def test_one_entry_outside_domain_rejects_stack(self, model, E):
        # E = E0 is the born-infeld boundary; H = 1.5 E0 the log model's
        fields = np.zeros((3, 3))
        fields[1, 0] = E
        stack = F(fields) if model.kind == "born-infeld" else F(np.zeros((3, 3)), fields)
        with pytest.raises(DomainExceeded):
            dL_dE(model, stack)


class TestTaylorReference:
    def test_born_infeld_coefficients_and_ratio(self):
        ref = taylor_reference(born_infeld(1.0))
        assert_allclose(ref.c1, 1 / EIGHT_PI)
        assert_allclose(ref.c20, 1 / (32 * np.pi))
        assert_allclose(ref.c02, 1 / EIGHT_PI)
        assert ref.c02 / ref.c20 == 4.0

    @pytest.mark.parametrize("make", [born_infeld, log_schroedinger])
    def test_largest_limiting_field(self, make):
        # 32 pi E0^2 overflowed above E0 ~ 1.3e153, so c20 read exactly 0
        E0 = float(np.sqrt(np.finfo(float).max))
        ref, unit = taylor_reference(make(E0)), taylor_reference(make(1.0))
        for c, c_unit in ((ref.c20, unit.c20), (ref.c02, unit.c02)):
            assert c * 2.0**100 * E0**2 == pytest.approx(c_unit * 2.0**100, rel=1e-12, abs=0.0)

    def test_maxwell(self):
        ref = taylor_reference(maxwell())
        assert (ref.c1, ref.c20, ref.c02) == (1 / EIGHT_PI, 0.0, 0.0)

    def test_log_model(self):
        ref = taylor_reference(log_schroedinger(1.0))
        assert_allclose(ref.c20, -1 / (16 * np.pi))
        assert ref.c02 == 0.0

    def test_polynomial(self):
        ref = taylor_reference(polynomial(alpha=0.5, beta=0.25, gamma=0.1, xi=0.01))
        assert (ref.c1, ref.c20, ref.c02) == (1 / EIGHT_PI, 0.5, 0.25)

    @pytest.mark.parametrize("model", [born_infeld(2.0), log_schroedinger(2.0),
                                       maxwell()])
    def test_quartic_remainder_bound(self, model):
        # |L - (c1 I1 + c20 I1^2 + c02 I2^2)| <= K max(|E|,|H|)^6 / E0^4
        # below 0.1 E0; K frozen from the sixth-order terms of both models.
        K = 0.05
        E0 = model.E0 if model.E0 is not None else 1.0
        ref = taylor_reference(model)
        rng = np.random.default_rng(23)
        for _ in range(200):
            E = rng.uniform(-0.1, 0.1, 3) * E0
            H = rng.uniform(-0.1, 0.1, 3) * E0
            Fv = FieldVectors(E=E, H=H)
            i1 = float(E @ E - H @ H)
            i2 = float(E @ H)
            approx = ref.c1 * i1 + ref.c20 * i1**2 + ref.c02 * i2**2
            L = lagrangian_density(model, Fv)
            mag6 = max(np.linalg.norm(E), np.linalg.norm(H)) ** 6
            assert abs(L - approx) <= K * mag6 / E0**4 + 1e-18


class TestModelConstruction:
    def test_config_round_trip(self):
        m = model_from_config({"kind": "born-infeld", "E0": 9.18e15})
        assert m.kind == "born-infeld" and m.E0 == 9.18e15
        m2 = model_from_config({"kind": "polynomial",
                                "coeffs": {"alpha": 1.0, "beta": 2.0}})
        assert m2.coeffs.alpha == 1.0 and m2.coeffs.zeta == 0.0

    def test_maxwell_carries_the_zero_polynomial(self):
        assert maxwell().coeffs == PolynomialCoeffs() and maxwell().kind == "maxwell"
        assert dataclasses.replace(maxwell()) == maxwell()
        assert model_from_config({"kind": "maxwell", "coeffs": {}}) == maxwell()

    def test_polynomial_without_coeffs_is_maxwell(self):
        m = model_from_config({"kind": "polynomial"})
        assert m.coeffs == PolynomialCoeffs()
        Fv = F((1.0, 2.0, 0.5), (0.3, 0.0, 1.0))
        assert lagrangian_density(m, Fv) == lagrangian_density(maxwell(), Fv)

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "weird"})

    def test_missing_e0(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "born-infeld"})

    @pytest.mark.parametrize("E0", [np.inf, np.nan, 1e155, 1e-300, 0.0, -1.0, "1e15"])
    @pytest.mark.parametrize("kind", ["born-infeld", "log-schroedinger"])
    def test_e0_whose_square_leaves_double_range_rejected(self, kind, E0):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": kind, "E0": E0})

    @pytest.mark.parametrize("E0", [2.0**-511, float(np.sqrt(np.finfo(float).max))])
    def test_e0_range_is_inclusive(self, E0):
        assert np.isfinite(E0**2) and E0**2 >= np.finfo(float).tiny
        assert born_infeld(E0).E0 == E0

    @pytest.mark.parametrize("spec", [
        {"kind": "born-infeld", "E0": True},
        {"kind": "polynomial", "coeffs": {"alpha": 1e308}},
        {"kind": "polynomial", "coeffs": {"xi": -3e306}},
        {"kind": "polynomial", "coeffs": {"beta": True}},
        # vacuous: maxwell would run as the polynomial, born-infeld has no coefficients
        {"kind": "maxwell", "coeffs": {"alpha": 1}},
        {"kind": "born-infeld", "E0": 1.0, "coeffs": {}},
        # the retired mie-sqrt kind's sign is an unknown key, on that kind and on every other
        {"kind": "mie-sqrt", "mie_sign": "a"},
        {"kind": "mie-sqrt", "mie_sign": True},
        {"kind": "born-infeld", "E0": 1.0, "mie_sign": -1},
        {"kind": "polynomial", "mie_sign": -1},
    ], ids=["E0_bool", "alpha_map_overflows", "xi_map_overflows", "coeff_bool",
            "maxwell_coeffs", "born_infeld_coeffs", "mie_sign_text", "mie_sign_bool",
            "born_infeld_mie_sign", "polynomial_mie_sign"])
    def test_spec_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            model_from_config(spec)

    def test_e0_on_scale_free_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "maxwell", "E0": 1.0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "maxwell", "EO": 1.0})


# one model of each kind, for the checks that every kind is a constitutive map
OF_KIND = {m.kind: m for m in (maxwell(), born_infeld(1.0), log_schroedinger(1.0),
                               polynomial(alpha=0.01, xi=0.001))}


class TestKinds:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_is_a_constitutive_map(self, kind):
        # each kind-dispatching function of models and constitutive is total
        # over KINDS: no kind raises for want of a map, a density or a Taylor row
        m = OF_KIND[kind]
        shape = constitutive._shape(m)
        assert min(_field_scales(m), default=None) == shape.scale
        assert shape.D_max > 0.0 and shape.E_top > 0.0
        i1 = np.float64(1e-4)  # L and dL/dI1 against c1 I1 + c20 I1^2 to second order
        ref = taylor_reference(m)
        assert ref.c1 == 1 / EIGHT_PI
        L, (d1, d2) = density_from_invariants(m, i1, 0.0), _dL_dI(m, i1, 0.0)
        assert abs(L - (ref.c1 * i1 + ref.c20 * i1**2)) <= 1e-8 * ref.c1 * i1
        assert abs(d1 - (ref.c1 + 2 * ref.c20 * i1)) <= 1e-8 * ref.c1 and d2 == 0.0
        D = displacement_from_field(m, 0.1)
        assert abs(field_from_displacement(m, D).E / 0.1 - 1) <= 1e-15

    def test_retired_kind_is_unknown(self):
        # mie-sqrt (L = s sqrt|I3|) had no map, soliton, energy or expansion
        message = ("unknown model kind 'mie-sqrt'; choose one of "
                   "('maxwell', 'born-infeld', 'log-schroedinger', 'polynomial')")
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            model_from_config({"kind": "mie-sqrt"})
