import numpy as np
import pytest
from numpy.testing import assert_allclose

from nled import (ConfigurationError, FieldVectors, FourPotential, boost, boost_four_potential,
                  energy_momentum_density, fierz_identity_sides, gauge_shift,
                  invariants)
from nled import kinematics
from nled.interaction import interaction_suite
from nled.kinematics import boost_invariance_suite, fierz_suite


def F(E, H):
    return FieldVectors(E=np.asarray(E, float), H=np.asarray(H, float))


class TestInvariants:
    def test_pure_electric(self):
        inv = invariants(F((1, 0, 0), (0, 0, 0)))
        assert inv.I1 == 1.0
        assert inv.I2 == 0.0
        assert inv.I3 is None

    def test_parallel_equal_fields(self):
        inv = invariants(F((1, 1, 1), (1, 1, 1)))
        assert inv.I1 == 0.0
        assert inv.I2 == 3.0

    def test_potential_invariants_concrete(self):
        # A = (0,0,2), phi = 1: I3 = 4 - 1 = 3
        A = FourPotential(phi=1.0, A=(0.0, 0.0, 2.0))
        inv = invariants(F((1, 0, 0), (0, 1, 0)), A)
        assert inv.I3 == 3.0

    def test_boost_preserves_i1_i2(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            Fv = F(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            before = invariants(Fv)
            after = invariants(boost(Fv, (0.6, 0, 0)))
            scale = float(Fv.E @ Fv.E + Fv.H @ Fv.H)
            assert abs(after.I1 - before.I1) <= 1e-10 * scale
            assert abs(after.I2 - before.I2) <= 1e-10 * scale

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            F((np.inf, 0, 0), (0, 0, 0))


class TestFierz:
    def test_orthogonal_equal_norm_null_case(self):
        lhs, rhs = fierz_identity_sides(F((1, 0, 0), (0, 1, 0)))
        assert lhs == 0.0
        assert rhs == 0.0

    def test_pure_electric(self):
        lhs, rhs = fierz_identity_sides(F((1, 0, 0), (0, 0, 0)))
        assert lhs == 1.0
        assert rhs == 1.0

    def test_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            lhs, rhs = fierz_identity_sides(F(rng.uniform(-1, 1, 3),
                                              rng.uniform(-1, 1, 3)))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_suite_report(self):
        rep = fierz_suite(draws=500, seed=0)
        assert rep["draws"] == 500
        assert rep["max_rel_err_fierz"] <= 1e-12


class TestEnergyMomentumDensity:
    C = 2.9979e10

    def test_pure_electric(self):
        U, g = energy_momentum_density(F((1, 0, 0), (0, 0, 0)), self.C)
        assert_allclose(U, 1 / (8 * np.pi))
        assert_allclose(g, 0.0)

    def test_crossed_null_fields(self):
        U, g = energy_momentum_density(F((1, 0, 0), (0, 1, 0)), self.C)
        lhs, _ = fierz_identity_sides(F((1, 0, 0), (0, 1, 0)))
        val = (8 * np.pi) ** 2 * (U**2 - self.C**2 * float(g @ g))
        assert_allclose(val, lhs, atol=5e-15)
        assert_allclose(self.C * np.linalg.norm(g), 1 / (4 * np.pi))

    def test_matches_fierz_lhs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            Fv = F(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            U, g = energy_momentum_density(Fv, self.C)
            lhs, _ = fierz_identity_sides(Fv)
            val = (8 * np.pi) ** 2 * (U**2 - self.C**2 * float(g @ g))
            assert abs(val - lhs) <= 1e-12 * (1.0 + abs(lhs))


class TestBoost:
    def test_zero_boost_is_identity(self):
        Fv = F((1, 2, 3), (4, 5, 6))
        out = boost(Fv, (0, 0, 0))
        assert_allclose(out.E, Fv.E)
        assert_allclose(out.H, Fv.H)

    def test_transverse_electric_fixture(self):
        out = boost(F((0, 1, 0), (0, 0, 0)), (0.6, 0, 0))
        assert_allclose(out.E, [0, 1.25, 0], rtol=1e-15)
        assert_allclose(out.H, [0, 0, -0.75], rtol=1e-15)
        inv = invariants(out)
        assert_allclose(inv.I1, 1.0, rtol=1e-14)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            boost(F((1, 0, 0), (0, 0, 0)), (1.0, 0, 0))

    def test_invariance_suite_at_09(self):
        rep = boost_invariance_suite(draws=1000, seed=2, beta_max=0.9)
        assert rep["max_rel_err_boost"] <= 1e-10


class TestGauge:
    def test_linear_gauge_shift_breaks_i3_not_i1_i2(self):
        Fv = F((1, 0, 0), (0, 1, 0))
        A0 = FourPotential(phi=0.5, A=(0.2, -0.3, 0.1))
        A1 = gauge_shift(A0, grad_chi=(1.0, 0.0, 0.0), dchi_dct=0.25)
        before, after = invariants(Fv, A0), invariants(Fv, A1)
        assert after.I1 == before.I1
        assert after.I2 == before.I2
        assert after.I3 != before.I3

    def test_four_potential_boost_preserves_i3(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = FourPotential(phi=rng.uniform(-1, 1), A=rng.uniform(-1, 1, 3))
            q = boost_four_potential(p, (0.6, 0.1, -0.2))
            i3_before = float(p.A @ p.A) - p.phi**2
            i3_after = float(q.A @ q.A) - q.phi**2
            assert_allclose(i3_after, i3_before, rtol=0, atol=1e-13)


SEEDS = [0, 2, 5, 27, 38]  # equality must hold at any seed; fixed ones make a failure reproducible


def fierz_per_draw(draws, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        lhs, rhs = fierz_identity_sides(F(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def boost_per_draw(draws, seed, beta_max=0.9):
    """The suite's blocks, evaluated one row at a time with the scalar calls:
    the worst drift and each row's boost arguments (E, H, beta)."""
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-1, 1, (draws, 2, 3))
    directions = rng.normal(size=(draws, 3))
    radii = rng.uniform(size=draws)
    worst, rows = 0.0, []
    for (E, H), direction, radius in zip(fields, directions, radii):
        Fv = F(E, H)
        beta = kinematics._unit(direction) * beta_max * np.cbrt(radius)
        rows.append((E, H, beta))
        before = invariants(Fv)
        after = invariants(boost(Fv, beta))
        scale = float(kinematics._dot(Fv.E, Fv.E) + kinematics._dot(Fv.H, Fv.H))
        worst = max(worst, abs(after.I1 - before.I1) / scale,
                    abs(after.I2 - before.I2) / scale)
    return worst, rows


class TestStacks:
    """The public functions take stacks of 3-vectors; the suites make one
    call per formula on the whole stack."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fierz_suite_equals_per_draw_calls(self, seed):
        assert fierz_suite(2000, seed)["max_rel_err_fierz"] == fierz_per_draw(2000, seed)

    @pytest.mark.parametrize("draws, seed", [*((1000, s) for s in SEEDS), (1, 0)],
                             ids=[*map(str, SEEDS), "draws=1"])
    def test_boost_suite_equals_per_draw_calls(self, draws, seed, recorded):
        calls = recorded(kinematics, "boost")
        worst = boost_invariance_suite(draws, seed)["max_rel_err_boost"]
        want, rows = boost_per_draw(draws, seed)
        [(stack, beta)] = calls
        assert worst == want
        # the stacked arguments, row by row and bit for bit
        got = [[a[i].tolist() for a in (stack.E, stack.H, beta)] for i in range(draws)]
        assert got == [[a.tolist() for a in row] for row in rows]

    def test_boost_suite_draws_blocks(self, generator_calls):
        few = generator_calls(lambda: boost_invariance_suite(10))
        assert few and generator_calls(lambda: boost_invariance_suite(1000)) == few

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(17)
        E, H, a, beta = rng.uniform(-1, 1, (4, 50, 3))
        beta *= 0.5
        phi = rng.uniform(-1, 1, 50)
        stack = F(E, H)
        inv = invariants(stack, FourPotential(phi=phi, A=a))
        sides = fierz_identity_sides(stack)
        boosted = boost(stack, beta)
        U, g = energy_momentum_density(stack, 3.0)
        q = boost_four_potential(FourPotential(phi=phi, A=a), beta)
        for i in range(50):
            row = F(E[i], H[i])
            want = invariants(row, FourPotential(phi=phi[i], A=a[i]))
            for name in ("I1", "I2", "I3"):
                assert_allclose(getattr(inv, name)[i], getattr(want, name), rtol=1e-14, atol=1e-15)
            assert_allclose([s[i] for s in sides], fierz_identity_sides(row), rtol=1e-14, atol=1e-15)
            one = boost(row, beta[i])
            assert_allclose(boosted.E[i], one.E, rtol=1e-14, atol=1e-15)
            assert_allclose(boosted.H[i], one.H, rtol=1e-14, atol=1e-15)
            assert_allclose(U[i], energy_momentum_density(row, 3.0)[0], rtol=1e-15)
            assert_allclose(g[i], energy_momentum_density(row, 3.0)[1], rtol=1e-15)
            p = boost_four_potential(FourPotential(phi=phi[i], A=a[i]), beta[i])
            assert_allclose(q.phi[i], p.phi, rtol=1e-14, atol=1e-15)
            assert_allclose(q.A[i], p.A, rtol=1e-14, atol=1e-15)

    def test_zero_beta_rows_left_unchanged(self):
        stack = F([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]], [[4.0, 5.0, 6.0], [0.0, -3.0, 1.0]])
        beta = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]
        out = boost(stack, beta)
        assert out.E[0].tolist() == stack.E[0].tolist()
        assert out.H[0].tolist() == stack.H[0].tolist()
        p = boost_four_potential(FourPotential(phi=[0.5, 0.5], A=[[1, 2, 3], [1, 2, 3]]), beta)
        assert p.phi[0] == 0.5 and p.A[0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("fn", [boost, boost_four_potential])
    def test_superluminal_entry_rejects_stack(self, fn):
        beta = np.zeros((5, 3))
        beta[3] = (0.6, 0.8, 0.0)  # |beta| = 1
        arg = F(np.ones((5, 3)), np.ones((5, 3))) if fn is boost else \
            FourPotential(phi=np.ones(5), A=np.ones((5, 3)))
        with pytest.raises(ValueError, match="beta"):
            fn(arg, beta)

    @pytest.mark.parametrize("make", [
        lambda bad: F(bad, np.ones((4, 3))),
        lambda bad: F(np.ones((4, 3)), bad),
        lambda bad: FourPotential(phi=np.ones(4), A=bad),
        lambda bad: FourPotential(phi=bad[:, 0], A=np.ones((4, 3))),
        lambda bad: boost(F(np.ones((4, 3)), np.ones((4, 3))), 0.1 * bad),
    ], ids=["E", "H", "A", "phi", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejects_stack(self, make, value):
        bad = np.ones((4, 3))
        bad[2, 0] = value
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 2), (5, 4), (3, 5)])
    def test_trailing_axis_must_be_three(self, shape):
        with pytest.raises(ValueError, match="shape"):
            F(np.ones(shape), np.ones(shape))
        with pytest.raises(ValueError, match="shape"):
            FourPotential(phi=1.0, A=np.ones(shape))
        with pytest.raises(ValueError, match="shape"):
            boost(F((1, 0, 0), (0, 1, 0)), np.full(shape, 0.1))

    @pytest.mark.parametrize("phi, A", [(np.ones(3), np.ones(3)), (np.ones(5), np.ones(3)),
                                        (np.ones(2), np.ones((3, 3)))])
    def test_phi_must_match_leading_shape_of_A(self, phi, A):
        with pytest.raises(ValueError, match="leading shape"):
            FourPotential(phi=phi, A=A)

    @pytest.mark.parametrize("sweep", [fierz_suite, boost_invariance_suite, interaction_suite],
                             ids=["fierz", "boost", "interaction"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_sweep_rejected(self, sweep, count):
        # an empty sweep's maxima would read a clean-looking 0.0
        with pytest.raises(ConfigurationError, match="at least 1"):
            sweep(count, 0)


class TestKernels:
    """_dot and _cross against numpy's vecdot and cross: the cross product
    bit for bit, the dot product within its rounding (the component sum may
    round differently from a dot routine)."""

    def test_small_integer_vectors_exact(self):
        a, b = np.random.default_rng(4).integers(-9, 10, (2, 200, 3)).astype(float)
        assert kinematics._dot(a, b).tolist() == np.vecdot(a, b).tolist()
        assert kinematics._cross(a, b).tolist() == np.cross(a, b).tolist()
        assert kinematics._dot(a[0], b[0]) == np.vecdot(a[0], b[0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_stacks(self, seed):
        # strided views, as the suites' transposed blocks are
        a, b = np.random.default_rng(seed).uniform(-1, 1, (1000, 2, 3)).transpose(1, 0, 2)
        v = np.random.default_rng(seed + 1).normal(size=3)
        for x, y in ((a, b), (v, b), (a, v)):
            got = kinematics._dot(x, y)
            assert got.shape == np.vecdot(x, y).shape
            scale = np.vecdot(np.abs(x), np.abs(y))
            assert np.all(np.abs(got - np.vecdot(x, y)) <= 1e-15 * scale)
            assert kinematics._cross(x, y).tolist() == np.cross(x, y).tolist()

    def test_empty_stack(self):
        z = np.empty((0, 3))
        assert kinematics._dot(z, z).shape == (0,)
        assert kinematics._cross(z, z).shape == (0, 3)
