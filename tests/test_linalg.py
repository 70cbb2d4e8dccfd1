import math

import numpy as np
import pytest

from koopgram.linalg import (
    LtiSystem,
    SpectrumError,
    _sweep_lower_bound,
    hinf_norm,
    integrate_ode,
    pinv,
    solve_lyapunov,
)

from oracles import (
    hinf_by_sweep,
    lyapunov_by_quadrature,
    random_stable_system,
    rk4_fixed_step,
    sweep_peak_by_loop,
)


class TestLtiSystem:
    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="square"):
            LtiSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="rows"):
            LtiSystem(-np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="columns"):
            LtiSystem(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LtiSystem([[np.inf]], [[1.0]], [[1.0]])


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_inverse_of_invertible(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(pinv(a), np.linalg.inv(a), atol=1e-12)

    def test_full_row_rank_right_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 5))
        assert np.allclose(a @ pinv(a), np.eye(3), atol=1e-10)

    def test_penrose_identities(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 6))
        ap = pinv(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ ap @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-8 * np.linalg.norm(ap)
        assert np.allclose(a @ ap, (a @ ap).T, atol=1e-8)
        assert np.allclose(ap @ a, (ap @ a).T, atol=1e-8)

    def test_tol_truncates_small_singular_values(self):
        a = np.diag([1.0, 1e-6])
        assert np.allclose(pinv(a, tol=1e-3), np.diag([1.0, 0.0]))


class TestSolveLyapunov:
    def test_scalar(self):
        x = solve_lyapunov([[-1.0]], [[2.0]])
        assert np.allclose(x, [[1.0]])

    def test_zero_forcing(self):
        x = solve_lyapunov([[-1.0, 0.3], [0.0, -2.0]], np.zeros((2, 2)))
        assert np.allclose(x, 0.0)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        a, b, _ = random_stable_system(rng, 5, 2, 1)
        q = b @ b.T
        x = solve_lyapunov(a, q)
        ref = lyapunov_by_quadrature(a, q)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(6)
        for k in range(5):
            a, b, _ = random_stable_system(rng, 4, 2, 1)
            q = b @ b.T
            x = solve_lyapunov(a, q)
            res = a @ x + x @ a.T + q
            assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(q)
            assert np.allclose(x, x.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(x)) >= -1e-10

    def test_rejects_unstable(self):
        with pytest.raises(SpectrumError, match="Hurwitz"):
            solve_lyapunov([[1.0]], [[1.0]])


class TestHinfNorm:
    def test_first_order_lag(self):
        sys = LtiSystem([[-1.0]], [[1.0]], [[1.0]])
        assert abs(hinf_norm(sys, 1e-8) - 1.0) <= 1e-7

    def test_dc_gain_ratio(self):
        sys = LtiSystem([[-2.0]], [[3.0]], [[1.0]])
        assert abs(hinf_norm(sys, 1e-8) - 1.5) <= 1e-7

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(7)
        for k in range(5):
            a, b, c = random_stable_system(rng, 4, 1, 1)
            sys = LtiSystem(a, b, c)
            got = hinf_norm(sys, tol=1e-7)
            ref = hinf_by_sweep(a, b, c, n_points=20_000)
            assert abs(got - ref) <= 1e-4 * ref

    def test_at_least_dc_gain(self):
        rng = np.random.default_rng(8)
        for k in range(5):
            a, b, c = random_stable_system(rng, 3, 2, 2)
            sys = LtiSystem(a, b, c)
            dc = np.linalg.norm(-c @ np.linalg.solve(a, b), 2)
            assert hinf_norm(sys) >= dc - 1e-8

    def test_zero_input_matrix(self):
        sys = LtiSystem([[-1.0]], [[0.0]], [[1.0]])
        assert hinf_norm(sys) == 0.0

    def test_rejects_unstable(self):
        with pytest.raises(SpectrumError):
            hinf_norm(LtiSystem([[0.5]], [[1.0]], [[1.0]]))

    def test_batched_sweep_equals_per_frequency_loop(self):
        rng = np.random.default_rng(9)
        for k in range(40):
            n, l, p = (int(v) for v in rng.integers(1, 7, size=3))
            a, b, c = random_stable_system(rng, n, l, p)
            for cm in (c, np.eye(n)):
                assert _sweep_lower_bound(a, b, cm) == sweep_peak_by_loop(a, b, cm)


class TestIntegrateOde:
    def test_scalar_exponential(self):
        t, x = integrate_ode(lambda t, x: -x, [1.0], (0.0, 1.0), tol=1e-10, t_eval=[0.0, 1.0])
        assert abs(x[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_zero_field(self):
        t, x = integrate_ode(
            lambda t, x: np.zeros_like(x), [2.0, -1.0], (0.0, 3.0), t_eval=np.linspace(0, 3, 7)
        )
        assert np.allclose(x, [2.0, -1.0])

    def test_matches_fixed_step_oracle(self):
        def field(t, x):
            return np.array([-x[0], -2.0 * (x[1] - x[0] ** 2)])

        t, x = integrate_ode(field, [1.0, 2.0], (0.0, 2.0), tol=1e-10, t_eval=[2.0])
        ref = rk4_fixed_step(field, [1.0, 2.0], 0.0, 2.0, 4000)
        assert np.linalg.norm(x[-1] - ref) <= 1e-7

    def test_halving_tol_reduces_error_monotonically(self):
        errs = []
        for k in range(6):
            tol = 1e-4 / 2**k
            _, x = integrate_ode(lambda t, x: -x, [1.0], (0.0, 1.0), tol=tol, t_eval=[1.0])
            errs.append(abs(x[-1, 0] - math.exp(-1.0)))
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda t, x: -x, [1.0], (1.0, 0.0))
