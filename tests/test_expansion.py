import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ConfigurationError, FieldVectors, born_infeld,
                  estimate_taylor_coefficients, lagrangian_density,
                  log_schroedinger, maxwell, mie_sqrt, polynomial_from_model,
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

    def test_mie_sqrt_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_taylor_coefficients(mie_sqrt(), 0.01)

    def test_quadratic_convergence_rate(self):
        m = born_infeld(1.0)
        c20 = taylor_reference(m).c20
        errs = [abs(estimate_taylor_coefficients(m, s).c20_hat - c20)
                for s in (0.02, 0.01, 0.005)]
        assert errs[0] > errs[1] > errs[2]
        assert 3.0 <= errs[0] / errs[1] <= 5.5
        assert 3.0 <= errs[1] / errs[2] <= 5.5

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
