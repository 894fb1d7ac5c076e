import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ConvergenceFailure, NoSolution, attainable_displacement_max,
                  born_infeld, dL_dE, displacement_from_field,
                  field_from_displacement, FieldVectors, log_schroedinger,
                  maxwell, polynomial)

FOUR_PI = 4 * np.pi


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

    @pytest.mark.parametrize("model, d_top", [
        (maxwell(), 1e300),
        (born_infeld(1.0), 1e300),
        (log_schroedinger(1.0), 0.5),
        (polynomial(alpha=0.01, xi=0.001), 1e60),
        (polynomial(alpha=-0.01, xi=0.001), 1e60),
    ])
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
            if model.kind == "born-infeld":  # E0 D / sqrt(E0^2 + D^2)
                assert abs(res.E / (d / np.hypot(1.0, d)) - 1) <= 1e-12
            else:
                assert abs(displacement_from_field(model, res.E) / d - 1) <= 1e-12
