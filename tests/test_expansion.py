import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import expansion
from nled import (ConfigurationError, FieldVectors, IllConditioned, NumericalError, born_infeld,
                  estimate_taylor_coefficients, lagrangian_density,
                  log_schroedinger, maxwell, polynomial, polynomial_from_model,
                  taylor_reference)


class TestEstimate:
    def test_born_infeld_ratio(self):
        est = estimate_taylor_coefficients(born_infeld(1.0), 0.01)
        assert abs(est.c02_hat / est.c20_hat - 4.0) <= 0.01
        assert_allclose(est.c1_hat, 1 / (8 * np.pi), rtol=1e-7)
        assert est.condition < 1e8

    def test_maxwell_null_coefficients(self):
        est = estimate_taylor_coefficients(maxwell(), 0.01)
        assert abs(est.c20_hat) <= 1e-12
        assert abs(est.c02_hat) <= 1e-12

    def test_log_model_c20(self):
        est = estimate_taylor_coefficients(log_schroedinger(1.0), 0.01)
        assert abs(est.c20_hat / (-1 / (16 * np.pi)) - 1) <= 0.01
        assert abs(est.c02_hat) <= 1e-5 * abs(est.c20_hat)

    def test_residual_invariant_at_default_scale(self):
        for m in (maxwell(), born_infeld(1.0), log_schroedinger(1.0)):
            est = estimate_taylor_coefficients(m, 0.01)
            scale = abs(lagrangian_density(m, FieldVectors(E=(0.01, 0, 0),
                                                           H=(0, 0, 0))))
            assert est.residual <= 1e-8 * max(scale, 1e-300)

    def test_scale_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            estimate_taylor_coefficients(maxwell(), 0.0)
        with pytest.raises(ConfigurationError):
            estimate_taylor_coefficients(maxwell(), 0.06)

    @pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-8])
    def test_rounding_scales_rejected(self, scale):
        # rounding grows as eps/s^2: born-infeld's c20 is off by 1e-3 at 1e-6 and by 9 at 1e-8
        with pytest.raises(ConfigurationError, match="sample_scale"):
            estimate_taylor_coefficients(born_infeld(1.0), scale)

    def test_smallest_sample_scale(self):
        est = estimate_taylor_coefficients(born_infeld(1.0), expansion.MIN_SAMPLE_SCALE)
        assert abs(est.c20_hat / taylor_reference(born_infeld(1.0)).c20 - 1) <= 1e-6

    def test_polynomial_samples_at_its_own_scale(self):
        # the scale is alpha's, 1/sqrt(16 pi alpha) = 1.4e-4, not unity, where
        # the fit returned c20/alpha = -4.74 at condition 1.98
        est = estimate_taylor_coefficients(polynomial(alpha=1e6, xi=1e12), 0.01)
        assert abs(est.c20_hat / 1e6 - 1) <= 1e-6
        assert abs(est.c1_hat * 8 * np.pi - 1) <= 1e-9

    def test_sample_beyond_the_doubles(self):
        # a subnormal alpha puts the map's scale, and s^2, beyond the doubles
        with pytest.raises(NumericalError, match="beyond the double range"):
            estimate_taylor_coefficients(polynomial(alpha=1e-316), 0.01)

    def test_quadratic_convergence_rate(self):
        m = born_infeld(1.0)
        c20 = taylor_reference(m).c20
        errs = [abs(estimate_taylor_coefficients(m, s).c20_hat - c20)
                for s in (0.02, 0.01, 0.005)]
        assert errs[0] > errs[1] > errs[2]
        assert 3.0 <= errs[0] / errs[1] <= 5.5
        assert 3.0 <= errs[1] / errs[2] <= 5.5

    @pytest.mark.parametrize("make", [born_infeld, log_schroedinger])
    def test_every_accepted_limiting_field(self, make):
        # the physical design's s^4 and s^6 columns left the doubles outside
        # E0 in [1e-51, 1e53]; the unit design is the same at every E0
        top = float(np.sqrt(np.finfo(float).max))
        for E0 in (2.0**-511, *np.geomspace(1e-150, 1e150, 31).tolist(), top):
            est, ref = estimate_taylor_coefficients(make(E0), 0.01), taylor_reference(make(E0))
            assert abs(est.c1_hat * 8 * np.pi - 1) <= 3.2e-9
            assert abs(est.c20_hat / ref.c20 - 1) <= 4e-6
            assert est.condition < 2.0

    def test_sextic_coefficient_beyond_the_doubles(self):
        # c30 = 1/(64 pi E0^4) is 5e305 at E0 = 1e-77 and beyond the doubles at 1e-78
        est = estimate_taylor_coefficients(born_infeld(1e-77), 0.01, higher_order=True)
        assert abs(est.c30_hat * 1e-154 * 1e-154 * 64 * np.pi - 1) <= 1e-3
        with pytest.raises(NumericalError, match="beyond the double range"):
            estimate_taylor_coefficients(born_infeld(1e-78), 0.01, higher_order=True)

    def test_ratio_invariant_under_field_scale(self):
        for e0 in (1.0, 9.18e15):
            est = estimate_taylor_coefficients(born_infeld(e0), 0.01)
            assert abs(est.c02_hat / est.c20_hat - 4.0) <= 0.01


class TestPolynomialTruncation:
    def test_from_born_infeld(self):
        m = polynomial_from_model(born_infeld(1.0), 0.01)
        assert abs(m.coeffs.alpha / (1 / (32 * np.pi)) - 1) <= 0.01
        assert abs(m.coeffs.beta / (1 / (8 * np.pi)) - 1) <= 0.01
        assert m.coeffs.gamma == m.coeffs.xi == m.coeffs.zeta == 0.0

    def test_from_maxwell(self):
        m = polynomial_from_model(maxwell(), 0.01)
        assert abs(m.coeffs.alpha) <= 1e-12
        assert abs(m.coeffs.beta) <= 1e-12

    def test_sixth_order_remainder_at_tenth_of_limit(self):
        # |L_poly - L_BI| at |E| = 0.1 E0, H = 0, bounded by the frozen
        # sixth-order envelope k (0.1)^6 E0^2/(16 pi); the true remainder is
        # E0^2 u^3/(64 pi) with u = 0.01, i.e. k = 1/4 exactly.
        k_frozen = 0.5
        parent = born_infeld(1.0)
        trunc = polynomial_from_model(parent, 0.01)
        Fv = FieldVectors(E=(0.1, 0, 0), H=(0, 0, 0))
        diff = abs(lagrangian_density(trunc, Fv) - lagrangian_density(parent, Fv))
        assert diff <= k_frozen * (0.1) ** 6 / (16 * np.pi)
        assert diff >= 0.1 * (0.1) ** 6 / (16 * np.pi)  # remainder is real


@pytest.mark.parametrize("higher_order", [False, True])
def test_condition_is_that_of_the_scaled_design(monkeypatch, higher_order):
    designs = []
    lstsq = np.linalg.lstsq

    def recording(M, y, rcond=None):
        designs.append(M)
        return lstsq(M, y, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    est = estimate_taylor_coefficients(born_infeld(1.0), 0.01, higher_order=higher_order)
    [Ms] = designs
    assert_allclose(est.condition, np.linalg.cond(Ms), rtol=1e-12)


def test_design_without_i2_is_ill_conditioned(monkeypatch):
    # H = 0 on every row: the I2^2 column vanishes and the smallest singular
    # value is zero, so the condition is inf (no divide warning)
    monkeypatch.setattr(expansion, "_CONFIGS",
                        tuple((E, (0.0, 0.0, 0.0)) for E, _ in expansion._CONFIGS))
    with pytest.raises(IllConditioned, match="condition number") as err:
        estimate_taylor_coefficients(born_infeld(1.0), 0.01)
    assert err.value.details["condition"] > expansion.CONDITION_LIMIT


def test_higher_order_estimation():
    # sixth-order coefficients of the limiting-field model: I1^3 carries
    # 1/(64 pi E0^4), I1 I2^2 carries 1/(16 pi E0^4), the parity-odd cross
    # term I1 I2 is absent.
    est = estimate_taylor_coefficients(born_infeld(1.0), 0.02, higher_order=True)
    assert abs(est.c30_hat / (1 / (64 * np.pi)) - 1) <= 0.01
    assert abs(est.c12_hat / (1 / (16 * np.pi)) - 1) <= 0.01
    assert abs(est.c11_hat) <= 1e-6
    assert est.condition < 1e8
    # default fit leaves the sixth-order slots unset
    assert estimate_taylor_coefficients(born_infeld(1.0), 0.02).c30_hat is None


def test_references_match_estimates_across_models():
    for m in (born_infeld(2.5), log_schroedinger(0.7)):
        ref = taylor_reference(m)
        est = estimate_taylor_coefficients(m, 0.005)
        assert_allclose(est.c20_hat, ref.c20, rtol=1e-3, atol=1e-18)
        assert_allclose(est.c02_hat, ref.c02, rtol=1e-3,
                        atol=1e-6 * abs(ref.c20))
