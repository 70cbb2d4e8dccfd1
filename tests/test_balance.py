import numpy as np
import pytest

from koopgram import pipeline
from koopgram.balance import (
    EXACT_RESIDUAL_TOL,
    BalancedRealization,
    MinimalityError,
    balance,
    balanced_nonlinear,
    factor_error,
    gramians,
    truncate,
)
from koopgram.certify import feedback_decomposition
from koopgram.gsvd import decompose, estimate_gains
from koopgram.koopman import (
    build_dictionary,
    collect_trajectories,
    fit_koopman,
    lifted_control_term,
)
from koopgram.linalg import LtiSystem, integrate_ode

from oracles import lyapunov_by_quadrature, random_stable_system


DECOUPLED = LtiSystem(-np.diag([1.0, 2.0]), np.eye(2), np.eye(2))


def linear_plant():
    a = np.array([[-1.0, 0.3], [0.0, -2.0]])
    b = np.array([[1.0], [0.5]])
    c = np.array([[1.0, 0.0]])
    f = lambda x, u: a @ x + b @ u
    h = lambda x: c @ x
    return a, b, c, f, h


def slow_manifold():
    def f(x, u):
        return np.array(
            [
                -x[0] + 0.5 * np.tanh(u[0]),
                -2.0 * (x[1] - x[0] ** 2) + np.cos(x[0]) * np.tanh(u[0]),
            ]
        )

    h = lambda x: x[:2].copy()
    return f, h


def fit_pipeline(f, h, dictionary, seed=0, slack=1.2, gain_box=3.0):
    f0 = lambda x: f(x, np.zeros(1))
    data = collect_trajectories(f0, dictionary.n, count=25, horizon=3.0, box=1.5, seed=seed)
    model = fit_koopman(f0, h, dictionary, data)
    fu = lifted_control_term(f, dictionary, l=1)
    gains = estimate_gains(fu, (dictionary.n, 1), sample_budget=2000, seed=seed, box=gain_box)
    factor = decompose(fu, (dictionary.n, 1), gains, slack=slack)
    b = factor.u @ factor.sigma
    sys = LtiSystem(model.a, b, model.c)
    bal = balance(sys, state_dim=dictionary.n)
    return model, factor, bal


class TestGramians:
    def test_closed_form_with_coupling(self):
        sys = LtiSystem(-np.diag([1.0, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
        xc, yo = gramians(sys)
        expect = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
        assert np.allclose(xc, expect, atol=1e-12)
        assert np.allclose(yo, expect, atol=1e-12)

    def test_decoupled_closed_form(self):
        xc, yo = gramians(DECOUPLED)
        assert np.allclose(xc, np.diag([0.5, 0.25]), atol=1e-12)
        assert np.allclose(yo, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zero_input_matrix(self):
        sys = LtiSystem(-np.eye(2), np.zeros((2, 1)), np.ones((1, 2)))
        xc, _ = gramians(sys)
        assert np.allclose(xc, 0.0)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(20)
        a, b, c = random_stable_system(rng, 4, 2, 2)
        xc, yo = gramians(LtiSystem(a, b, c))
        assert np.allclose(xc, lyapunov_by_quadrature(a, b @ b.T), atol=1e-8)
        assert np.allclose(yo, lyapunov_by_quadrature(a.T, c.T @ c), atol=1e-8)


class TestBalance:
    def test_already_balanced_system(self):
        bal = balance(DECOUPLED)
        assert np.allclose(bal.hsv, [0.5, 0.25], atol=1e-12)
        assert np.allclose(np.abs(bal.t), np.eye(2), atol=1e-10)

    def test_scalar_closed_form(self):
        bal = balance(LtiSystem([[-1.0]], [[2.0]], [[3.0]]))
        assert np.allclose(bal.hsv, [3.0], atol=1e-12)

    def test_transformed_gramians_are_equal_and_diagonal(self):
        rng = np.random.default_rng(21)
        for k in range(4):
            a, b, c = random_stable_system(rng, 5, 2, 2)
            bal = balance(LtiSystem(a, b, c))
            d = np.diag(bal.hsv)
            scale = bal.hsv[0]
            assert np.linalg.norm(bal.t @ bal.xc @ bal.t.T - d) <= 1e-8 * scale
            assert (
                np.linalg.norm(bal.t_inv.T @ bal.yo @ bal.t_inv - d) <= 1e-8 * scale
            )
            assert np.all(np.diff(bal.hsv) <= 1e-12)

    def test_balanced_matrices_match_direct_formula(self):
        rng = np.random.default_rng(22)
        a, b, c = random_stable_system(rng, 4, 1, 1)
        sys = LtiSystem(a, b, c)
        bal = balance(sys)
        assert np.allclose(bal.a_bal, bal.t @ a @ bal.t_inv, atol=1e-12)
        assert np.allclose(bal.b_bal, bal.t @ b, atol=1e-12)
        assert np.allclose(bal.c_bal, c @ bal.t_inv, atol=1e-12)
        assert np.allclose(bal.r, bal.t_inv[: sys.order, :], atol=1e-15)

    def test_rejects_nonminimal(self):
        sys = LtiSystem(-np.eye(2), [[1.0], [0.0]], [[1.0, 0.0]])
        with pytest.raises(MinimalityError, match="1-dimensional"):
            balance(sys)

    def test_json_roundtrip(self):
        bal = balance(DECOUPLED)
        back = pipeline._load(BalancedRealization, pipeline._jsonable(bal))
        assert np.array_equal(back.t, bal.t)
        assert np.array_equal(back.hsv, bal.hsv)
        assert back.state_dim == bal.state_dim


class TestTruncate:
    def test_full_order_is_identity(self):
        bal = balance(DECOUPLED)
        red = truncate(bal, 2)
        assert red.hsv_tail.size == 0
        assert np.allclose(red.a_r, bal.a_bal)
        assert np.allclose(red.b_r, bal.b_bal)
        assert np.allclose(red.c_r, bal.c_bal)

    def test_first_order_blocks(self):
        bal = balance(DECOUPLED)
        red = truncate(bal, 1)
        assert np.allclose(red.a_r, bal.a_bal[:1, :1])
        assert np.allclose(red.hsv_tail, [0.25])

    def test_out_of_range_rejected(self):
        bal = balance(DECOUPLED)
        with pytest.raises(ValueError):
            truncate(bal, 0)
        with pytest.raises(ValueError):
            truncate(bal, 3)


class TestBalancedNonlinear:
    def test_linear_plant_collapses_to_balanced_matrices(self):
        a, b, c, f, h = linear_plant()
        d = build_dictionary("identity", 2)
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        rng = np.random.default_rng(24)
        for _ in range(100):
            z = rng.normal(size=2)
            u = rng.normal(size=1)
            expect = bal.a_bal @ z + bal.t @ (b @ u)
            assert np.allclose(bn.f_reduced(z, u), expect, atol=1e-9)

    def test_control_term_vanishes_at_zero_input(self):
        f, h = slow_manifold()
        d = build_dictionary("monomials", 2, exponents=[(1, 0), (0, 1), (2, 0)])
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        rng = np.random.default_rng(25)
        for _ in range(200):
            # at u = 0 the field is the drift matrix plus the representation
            # error, with no control contribution
            z = rng.normal(size=3)
            drift = bal.a_bal @ z + bn.error_map(z)
            assert np.allclose(bn.f_reduced(z, np.zeros(1)), drift, atol=1e-12)
        assert np.allclose(bn.f_reduced(np.zeros(3), np.zeros(1)), 0.0, atol=1e-12)

    def test_error_map_vanishes_for_exact_dictionary(self):
        f, h = slow_manifold()
        d = build_dictionary("monomials", 2, exponents=[(1, 0), (0, 1), (2, 0)])
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        rng = np.random.default_rng(26)
        for _ in range(200):
            z = rng.uniform(-3, 3, size=3)
            assert np.linalg.norm(bn.error_map(z)) <= 1e-8
            assert np.linalg.norm(bn.error_map(z[:2])) <= 1e-8

    def test_one_instance_serves_every_order(self):
        # identity dictionary: the slow-manifold drift leaves a nonzero error
        f, h = slow_manifold()
        d = build_dictionary("identity", 2)
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        rng = np.random.default_rng(27)
        for r in range(1, bal.q + 1):
            for _ in range(50):
                z_r = rng.uniform(-2, 2, size=r)
                full = bn.error_map(np.concatenate([z_r, np.zeros(bal.q - r)]))[:r]
                got = bn.error_map(z_r)
                assert np.linalg.norm(full) > 0.0
                assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)

    def test_state_recovery_along_trajectory(self):
        f, h = slow_manifold()
        d = build_dictionary("monomials", 2, exponents=[(1, 0), (0, 1), (2, 0)])
        model, factor, bal = fit_pipeline(f, h, d)
        x0 = np.array([0.8, -0.5])
        t_eval = np.linspace(0.0, 3.0, 31)
        xs = integrate_ode(lambda t, x: f(x, np.zeros(1)), x0, t_eval, 1e-10)
        for x in xs:
            z = bal.t @ d.evaluate(x)
            assert np.linalg.norm(bal.r @ z - x) <= 1e-8


class TestFactorError:
    def test_exact_dictionary_yields_zero_gain(self):
        f, h = slow_manifold()
        d = build_dictionary("monomials", 2, exponents=[(1, 0), (0, 1), (2, 0)])
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        assert model.residual_gain <= EXACT_RESIDUAL_TOL
        # no error block: None, which the feedback decomposition reads as gain 0
        assert factor_error(bn, sample_budget=400, seed=1, box=3.0) is None
        red = truncate(bal, 2)
        assert factor_error(bn, reduced=red, sample_budget=400, seed=1, box=3.0) is None
        assert feedback_decomposition(bal.a_bal, bal.b_bal, None).ge_gain == 0.0

    def test_identity_dictionary_detects_residual(self):
        f, h = slow_manifold()
        d = build_dictionary("identity", 2)
        model, factor, bal = fit_pipeline(f, h, d)
        bn = balanced_nonlinear(f, 1, model, bal)
        err_factor = factor_error(bn, sample_budget=400, seed=2, box=3.0)
        assert np.max(np.abs(np.diag(err_factor.sigma))) > 0.01
        rng = np.random.default_rng(29)
        for _ in range(100):
            z = rng.uniform(-2, 2, size=2)
            val = bn.error_map(z)
            err = np.linalg.norm(err_factor.reconstruct(z) - val)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(val))
