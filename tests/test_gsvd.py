import numpy as np
import pytest

from koopgram.gsvd import (
    GainProfile,
    GsvdFactor,
    SlackViolationError,
    decompose,
    estimate_gains,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestEstimateGains:
    def test_linear_scalar_is_exact(self):
        prof = estimate_gains(lambda x: 2.0 * x, 1, sample_budget=200, seed=1)
        assert abs(prof.coordinate_bounds[0] - 2.0) <= 1e-12
        assert prof.source == "sampled_estimate"

    def test_sin_gain_close_to_one(self):
        prof = estimate_gains(lambda x: np.sin(x), 1, sample_budget=10_000, seed=2)
        assert 0.99 <= prof.coordinate_bounds[0] <= 1.0

    def test_zero_map(self):
        prof = estimate_gains(lambda x: np.zeros(2), 3, sample_budget=150, seed=3)
        assert np.allclose(prof.coordinate_bounds, 0.0)

    def test_deterministic_for_fixed_seed(self):
        f = lambda x: np.array([np.tanh(x[0]), x[1] * x[0]])
        a = estimate_gains(f, 2, sample_budget=500, seed=11)
        b = estimate_gains(f, 2, sample_budget=500, seed=11)
        assert np.array_equal(a.coordinate_bounds, b.coordinate_bounds)

    def test_rejects_non_finite_map(self):
        with pytest.raises(ValueError, match="non-finite"):
            estimate_gains(lambda x: np.full(1, np.nan), 1, sample_budget=100, seed=0)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            estimate_gains(lambda x: x, 1, sample_budget=10)

    def test_control_gains_measured_against_u(self):
        fu = lambda x, u: np.array([np.cos(x[0]) * np.tanh(u[0])])
        prof = estimate_gains(fu, (1, 1), sample_budget=2000, seed=4)
        assert 0.95 <= prof.coordinate_bounds[0] <= 1.0


class TestDecompose:
    def test_scalar_identity_with_sqrt2_slack(self):
        factor = decompose(lambda x: x.copy(), 1, GainProfile([1.0]), slack=np.sqrt(2.0))
        x = np.array([0.7])
        assert np.allclose(factor.support(x)[:1], x / np.sqrt(2.0))
        assert np.isclose(np.linalg.norm(factor.kernel(x)), abs(x[0]) / np.sqrt(2.0))
        assert np.isclose(np.linalg.norm(factor.lift(x)), abs(x[0]))

    def test_nonlinear_two_dim_reconstruction(self):
        f = lambda x: np.array([np.sin(x[0]), x[1] / (1.0 + x[0] ** 2)])
        gains = estimate_gains(f, 2, sample_budget=4000, seed=5)
        factor = decompose(f, 2, gains, slack=1.05)
        rng = np.random.default_rng(6)
        for x in rng.uniform(-4, 4, size=(1000, 2)):
            v = factor.lift(x)
            nx = np.linalg.norm(x)
            assert abs(np.linalg.norm(v) - nx) <= 1e-10 * (1.0 + nx)
            fx = f(x)
            err = np.linalg.norm(factor.reconstruct(x) - fx)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(fx))

    def test_lift_vanishes_at_origin(self):
        factor = decompose(lambda x: np.tanh(x), 2, GainProfile([1.0, 1.0]))
        assert np.allclose(factor.lift(np.zeros(2)), 0.0)

    def test_underestimated_gains_raise_with_witness(self):
        factor = decompose(lambda x: 2.0 * x, 1, GainProfile([0.5]), slack=1.05)
        with pytest.raises(SlackViolationError) as err:
            factor.lift(np.array([1.0]))
        assert err.value.witness is not None

    def test_kernel_block_is_positive_multiple_of_input(self):
        f = lambda x: np.array([np.sin(x[0]), 0.2 * x[1]])
        factor = decompose(f, 2, GainProfile([1.0, 0.2]), slack=1.2)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-3, 3, size=(50, 2)):
            k = factor.kernel(x)[factor.out_dim :]
            assert abs(k[0] * x[1] - k[1] * x[0]) <= 1e-12  # collinear with x
            if np.linalg.norm(x) > 0:
                assert k @ x > 0.0

    def test_sigma_kills_kernel_structurally(self):
        f = lambda x: np.array([np.sin(x[0]), 0.2 * x[1]])
        factor = decompose(f, 2, GainProfile([1.0, 0.2]), slack=1.2)
        x = np.array([1.0, -2.0])
        assert np.all(factor.sigma @ factor.kernel(x) == 0.0)


class TestDecomposeLinearPlus:
    """Maps whose per-coordinate gains the caller knows, sized by ``decompose``."""

    def test_full_rank_linear_recovers_classical_svd(self):
        # rows orthogonal with decreasing norms: left singular basis is I;
        # Sigma is the singular values inflated by sqrt(p), so the support
        # carries V^T x / sqrt(2) and the kernel tops the norm up with x / sqrt(2)
        vt = rotation(0.4)
        a = np.diag([2.0, 1.0]) @ vt
        factor = decompose(lambda x: a @ x, 2, GainProfile([2.0, 1.0]), slack=1.0)
        assert np.allclose(np.diag(factor.sigma[:, :2]), np.sqrt(2.0) * np.array([2.0, 1.0]))
        rng = np.random.default_rng(8)
        for x in rng.normal(size=(200, 2)):
            v = factor.lift(x)
            assert np.allclose(v[:2], vt @ x / np.sqrt(2.0), atol=1e-12)
            assert np.allclose(v[2:], x / np.sqrt(2.0), atol=1e-7)
            assert np.linalg.norm(factor.reconstruct(x) - a @ x) <= 1e-12 * np.linalg.norm(a @ x)

    def test_radial_tanh_map(self):
        def f(x):
            r = np.linalg.norm(x)
            return x * (np.tanh(r) / r) if r > 0 else np.zeros_like(x)

        factor = decompose(f, 3, GainProfile([1.0, 1.0, 1.0]), slack=1.0)
        rng = np.random.default_rng(9)
        for x in rng.normal(size=(300, 3)):
            v = factor.lift(x)
            nx = np.linalg.norm(x)
            assert abs(np.linalg.norm(v) - nx) <= 1e-10 * (1.0 + nx)
            err = np.linalg.norm(factor.reconstruct(x) - f(x))
            assert err <= 1e-10 * (1.0 + np.linalg.norm(f(x)))

    def test_zero_map_puts_all_weight_in_kernel(self):
        factor = decompose(lambda x: np.zeros(2), 2, GainProfile([0.0, 0.0]), slack=1.0)
        x = np.array([3.0, -4.0])
        v = factor.lift(x)
        assert np.allclose(v[:2], 0.0)
        assert np.allclose(v[2:], x)
        assert np.allclose(factor.reconstruct(x), 0.0)

    def test_violated_membership_reports_witness(self):
        # true row norms are about 1.82 and 1.30: these bounds are undersized
        a = rotation(0.5) @ np.diag([2.0, 1.0])
        factor = decompose(lambda x: a @ x, 2, GainProfile([0.5, 0.25]), slack=1.0)
        rng = np.random.default_rng(10)
        with pytest.raises(SlackViolationError, match="underestimated") as info:
            for x in rng.normal(size=(100, 2)):
                factor.lift(x)
        witness = info.value.witness[0]
        assert info.value.radicand < 0.0
        assert np.linalg.norm(factor.support(witness)) > np.linalg.norm(witness)

    def test_rejects_unsorted_suprema(self):
        sigma = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="nonincreasing"):
            GsvdFactor(u=np.eye(2), sigma=sigma, slack=1.0, kernel_dim=2, map=lambda x: x)


class TestDecomposeControl:
    @staticmethod
    def _tanh_map(x, u):
        return np.array([np.cos(x[0]) * np.tanh(u[0])])

    def test_zero_input_maps_to_zero(self):
        factor = decompose(self._tanh_map, (1, 1), GainProfile([1.0]))
        assert np.allclose(factor.lift(np.array([2.0]), np.zeros(1)), 0.0)

    def test_linear_control_term(self):
        b = np.array([[1.0, 0.5], [0.0, 2.0]])
        fu = lambda x, u: b @ u
        gains = GainProfile(np.linalg.norm(b, axis=1))
        factor = decompose(fu, (2, 2), gains, slack=1.1)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(size=2)
            u = rng.normal(size=2)
            expect = factor._sigma_pinv @ factor.u.T @ (b @ u)
            assert np.allclose(factor.support(x, u), expect, atol=1e-12)
            assert np.allclose(factor.reconstruct(x, u), b @ u, atol=1e-12)

    def test_norm_preservation_on_samples(self):
        factor = decompose(self._tanh_map, (1, 1), GainProfile([1.0]), slack=1.05)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x = rng.uniform(-4, 4, size=1)
            u = rng.uniform(-4, 4, size=1)
            v = factor.lift(x, u)
            nu = np.linalg.norm(u)
            assert abs(np.linalg.norm(v) - nu) <= 1e-10 * (1.0 + nu)
            fx = factor.map(x, u)
            err = np.linalg.norm(factor.reconstruct(x, u) - fx)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(fx))

    def test_rejects_nonvanishing_control_term(self):
        bad = lambda x, u: np.array([x[0] + u[0]])
        with pytest.raises(ValueError, match="vanish"):
            decompose(bad, (1, 1), GainProfile([1.0]))

    def test_rejects_gain_profile_of_wrong_size(self):
        with pytest.raises(ValueError, match="gain profile size"):
            decompose(self._tanh_map, (1, 1), GainProfile([1.0, 1.0]))
