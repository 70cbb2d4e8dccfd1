import dataclasses
import json
from pathlib import Path

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
from koopgram.expr import builtin_systems, get_builtin, system_from_spec
from koopgram.gsvd import decompose, estimate_gains
from koopgram.koopman import (
    build_dictionary,
    collect_trajectories,
    fit_koopman,
    lifted_control_term,
)
from koopgram.linalg import LtiSystem, integrate_ode

from oracles import lyapunov_by_quadrature, random_stable_system


BUILTIN_NAMES = [system.name for system in builtin_systems()]
EXPR_LIFT = Path(__file__).resolve().parents[1] / "perfbench" / "expr_lift_system.json"
DECOUPLED = LtiSystem(-np.diag([1.0, 2.0]), np.eye(2), np.eye(2))


# declared systems, whose f and h take one point or a stack of them
def linear_plant():
    a = [[-1.0, 0.3], [0.0, -2.0]]
    b = [[1.0], [0.5]]
    c = [[1.0, 0.0]]
    plant = system_from_spec({"n": 2, "l": 1, "p": 1, "f": {"a": a, "b": b}, "h": {"c": c}})
    return np.array(a), np.array(b), np.array(c), plant.f, plant.h


def slow_manifold():
    # f = (-x1 + 0.5 tanh u1, -2 (x2 - x1^2) + cos(x1) tanh u1), h = x
    system = get_builtin("slow_manifold")
    return system.f, system.h


def balanced_pipeline(tmp_path, system):
    """The declared system, its ``BalancedNonlinear`` and its gain box, from
    the pipeline stages up to balance at a reduced sample budget."""
    if system == "expr_lift":
        if not EXPR_LIFT.exists():
            pytest.skip("perfbench/ is not in this checkout")
        system = json.loads(EXPR_LIFT.read_text())
    cfg = pipeline.PipelineConfig(system=system, reduction_orders=[1],
                                  output_dir=str(tmp_path), sample_budget=400)
    for stage in (pipeline.stage_fit_koopman, pipeline.stage_decompose, pipeline.stage_balance):
        stage(cfg)
    sysd, _, _, bn, _ = pipeline._reduced_models(cfg, "simulate")
    return sysd, bn, pipeline._gain_box(cfg, sysd)


def fit_pipeline(f, h, dictionary, seed=0, slack=1.2, gain_box=3.0):
    f0 = lambda x: f(x, np.zeros(x.shape[:-1] + (1,)))
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
            assert np.allclose(bn.f_reduced([z], u)[0], expect, atol=1e-9)

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
            assert np.allclose(bn.f_reduced([z], np.zeros(1))[0], drift, atol=1e-12)
        assert np.allclose(bn.f_reduced([np.zeros(3)], np.zeros(1))[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("system", ["lti6", "slow_manifold", "expr_lift"])
    def test_multi_order_call_equals_single_order_calls(self, tmp_path, system):
        # identity, hinted monomial and expression-system dictionaries: one
        # call for orders 1-3 gives each order's field bit for bit
        sysd, bn, _ = balanced_pipeline(tmp_path, system)
        rng = np.random.default_rng(28)
        for _ in range(200):
            zs = [rng.uniform(-2, 2, size=r) for r in (1, 2, 3)]
            u = rng.uniform(-2, 2, size=sysd.l)
            for z, field in zip(zs, bn.f_reduced(zs, u), strict=True):
                assert np.array_equal(field, bn.f_reduced([z], u)[0])

    @pytest.mark.parametrize("system", [*BUILTIN_NAMES, "expr_lift"])
    def test_folded_field_equals_unfolded_lifted_field(self, tmp_path, system):
        # at every order, the precomputed K_r z + M_r f + N_r [D_phi_nl f; phi_nl]
        # is A_bal[:r, :r] z + (T (D_phi(x) f(x, u) - A phi(x)))[:r] at
        # x = R_r z, up to rounding of its largest term
        sysd, bn, box = balanced_pipeline(tmp_path, system)
        bal, d, a = bn.bal, bn.model.dictionary, bn.model.a
        rng = np.random.default_rng(31)
        for r in range(1, bal.q + 1):
            for _ in range(2000):
                z = rng.uniform(-box, box, size=r)
                u = rng.uniform(-box, box, size=sysd.l)
                x = bal.r[:, :r] @ z
                phi = d.evaluate(x)
                terms = [bal.a_bal[:r, :r] @ z, (bal.t @ (d.jacobian(x) @ sysd.f(x, u)))[:r],
                         (bal.t @ (a @ phi))[:r]]
                scale = max(np.max(np.abs(term)) for term in terms)
                err = np.max(np.abs(bn.f_reduced([z], u)[0] - (terms[0] + terms[1] - terms[2])))
                assert err <= 1e-12 * scale, (r, z, u, err, scale)

    @pytest.mark.parametrize("system", ["lti6", "slow_manifold"])
    def test_wrapper_that_keeps_the_values_keeps_the_bits(self, tmp_path, system):
        # the fold follows the system's linear declaration, which a replaced
        # system keeps, so a plain wrapper of lti6's declared f folds too
        sysd, bn, box = balanced_pipeline(tmp_path, system)
        replaced = dataclasses.replace(sysd, f=lambda x, u: sysd.f(x, u))
        wrapped = balanced_nonlinear(replaced.f, replaced.l, bn.model, bn.bal, replaced.linear)
        rng = np.random.default_rng(33)
        for _ in range(100):
            zs = [rng.uniform(-box, box, size=r).tolist() for r in range(1, bn.bal.q + 1)]
            u = tuple(rng.uniform(-box, box, size=sysd.l).tolist())
            got, want = wrapped.f_reduced(zs, u), bn.f_reduced(zs, u)
            assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in want]

    @pytest.mark.parametrize("system", ["lti6", "slow_manifold"])
    def test_replaced_f_drives_every_order(self, tmp_path, system):
        # a replaced f with other values must drop lti6's linear declaration;
        # then it is called once per order, and its values drive every order
        sysd, bn, box = balanced_pipeline(tmp_path, system)
        calls = []

        def doubled(x, u):
            calls.append(len(x))
            return 2.0 * np.asarray(sysd.f(x, u))

        if sysd.linear is not None:
            with pytest.raises(ValueError, match="declared linear"):
                dataclasses.replace(sysd, f=doubled)
        replaced = dataclasses.replace(sysd, f=doubled, linear=None)
        bal, d, a = bn.bal, bn.model.dictionary, bn.model.a
        wrapped = balanced_nonlinear(replaced.f, sysd.l, bn.model, bal, replaced.linear)
        rng = np.random.default_rng(32)
        for _ in range(100):
            zs = [rng.uniform(-box, box, size=r) for r in range(1, bal.q + 1)]
            u = rng.uniform(-box, box, size=sysd.l)
            calls.clear()
            fields = wrapped.f_reduced([z.tolist() for z in zs], tuple(u.tolist()))
            assert calls == [sysd.n] * bal.q
            for z, field in zip(zs, fields, strict=True):
                r = len(z)
                x = bal.r[:, :r] @ z
                terms = [bal.a_bal[:r, :r] @ z, (bal.t @ (d.jacobian(x) @ (2.0 * sysd.f(x, u))))[:r],
                         (bal.t @ (a @ d.evaluate(x)))[:r]]
                scale = max(np.max(np.abs(term)) for term in terms)
                assert np.max(np.abs(np.array(field) - (terms[0] + terms[1] - terms[2]))) <= 1e-12 * scale

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
