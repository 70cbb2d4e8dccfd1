import dataclasses

import numpy as np
import pytest

from koopgram.koopman import (
    TrajectoryDataset,
    build_dictionary,
    collect_trajectories,
    fit_koopman,
)
from koopgram.linalg import StiffnessError, integrate_ode

from oracles import monomial_jacobian_by_loop


# the maps fit_koopman calls take one point or a stack of them
def slow_manifold_drift(x):
    return np.stack([-x[..., 0], -2.0 * (x[..., 1] - x[..., 0] ** 2)], axis=-1)


SLOW_MANIFOLD_EXPONENTS = [(1, 0), (0, 1), (2, 0)]
SLOW_MANIFOLD_GENERATOR = np.array(
    [[-1.0, 0.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -2.0]]
)


@pytest.fixture(scope="module")
def slow_manifold_data():
    return collect_trajectories(
        slow_manifold_drift, 2, count=25, horizon=3.0, samples_per_trajectory=10, box=1.5, seed=42
    )


class TestBuildDictionary:
    def test_identity(self):
        d = build_dictionary("identity", 2)
        assert d.q == 2
        x = np.array([0.3, -0.7])
        assert np.allclose(d.evaluate(x), x)
        assert np.allclose(d.jacobian(x), np.eye(2))

    def test_monomials_degree_two_two_states(self):
        d = build_dictionary("monomials", 2, degree=2)
        assert d.q == 5
        x = np.array([2.0, 3.0])
        assert np.allclose(d.evaluate(x), [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_monomials_degree_two_one_state(self):
        d = build_dictionary("monomials", 1, degree=2)
        assert d.q == 2
        assert np.allclose(d.evaluate(np.array([3.0])), [3.0, 9.0])

    def test_monomial_jacobian_matches_finite_differences(self):
        d = build_dictionary("monomials", 2, degree=3)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(5, 2)):
            jac = d.jacobian(x)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd = (d.evaluate(x + e) - d.evaluate(x - e)) / (2 * step)
                assert np.allclose(jac[:, j], fd, atol=1e-5)

    def test_monomial_jacobian_equals_entrywise_loop(self):
        # only the nonzero entries are visited, each multiplied in the
        # loop's order, so every bit is the same
        d = build_dictionary("monomials", 3, degree=3)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5000, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(5000, 1))
        xs[:20] = 0.0
        xs[20:40, 1] = 0.0
        for x in xs:
            assert np.array_equal(d.jacobian(x), monomial_jacobian_by_loop(d.exponents, x))

    @pytest.mark.parametrize("kind, n, exponents", [
        ("monomials", 3, None),  # every exponent up to degree 3
        ("monomials", 2, [(1, 0), (0, 1), (2, 0)]),
        ("monomials", 2, [(1, 0), (0, 1)]),
        ("identity", 3, None),
    ])
    def test_lie_terms_equal_jacobian_product_and_evaluate(self, kind, n, exponents):
        # one pass over the nonlinear monomials' factors gives the Jacobian's
        # rows past the coordinates times v and those observables' values;
        # the sum and numpy's vector power round differently, so each entry
        # is held to a few ulps of the magnitude of its terms
        d = build_dictionary(kind, n, degree=3 if exponents is None else None, exponents=exponents)
        m = d.q - n
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(2000, n)) * rng.choice([1e-3, 1.0, 30.0], size=(2000, 1))
        xs[:20] = 0.0
        xs[20:40, 0] = 0.0
        xs[40:60, -1] = 0.0
        for x, v in zip(xs, rng.normal(size=(2000, n))):
            jac, phi = d.jacobian(x)[n:], d.evaluate(x)[n:]
            got = d.lie_terms(x, v)
            assert got.shape == (2 * m,)
            scale = np.concatenate([np.abs(jac) @ np.abs(v), np.abs(phi)])
            assert np.all(np.abs(got - np.concatenate([jac @ v, phi])) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("kind", ["identity", "monomials"])
    def test_stacked_evaluate_equals_single_calls(self, kind):
        d = build_dictionary(kind, 3, degree=3 if kind == "monomials" else None)
        xs = np.random.default_rng(4).normal(size=(500, 3)) * 10.0
        stacked = d.evaluate(xs)
        jacs = d.jacobians(xs)
        assert stacked.shape == (500, d.q)
        assert jacs.shape == (500, d.q, 3)
        for x, row, jac in zip(xs, stacked, jacs):
            assert np.array_equal(d.evaluate(x), row)
            assert np.array_equal(d.jacobian(x), jac)

    def test_replaced_jacobian_reaches_the_default_jacobians(self):
        # the default per-row jacobians follows dataclasses.replace, as a
        # wrapper that times jacobian needs; the identity's one broadcast
        # identity stack is kept and shared read-only
        xs = np.random.default_rng(5).normal(size=(7, 2))
        d = build_dictionary("monomials", 2, degree=2)
        seen = []
        # jacobians=None stands for a hand-built dictionary: the per-row default
        hand_built = dataclasses.replace(d, jacobians=None)
        spy = dataclasses.replace(hand_built, jacobian=lambda x: seen.append(x) or d.jacobian(x))
        assert np.array_equal(spy.jacobians(xs), d.jacobians(xs))
        assert len(seen) == len(xs)
        # a monomial dictionary's stacked jacobians never calls jacobian
        dataclasses.replace(d, jacobian=lambda x: seen.append(x) or d.jacobian(x)).jacobians(xs)
        assert len(seen) == len(xs)
        eye = dataclasses.replace(build_dictionary("identity", 2), jacobian=None).jacobians(xs)
        assert np.array_equal(eye, np.broadcast_to(np.eye(2), (7, 2, 2)))
        assert not eye.flags.writeable

    @pytest.mark.parametrize("n, q", [(3, 19), (6, 83)])
    def test_stacked_monomial_jacobians_equal_per_state_jacobian(self, n, q):
        # every entry computed on the whole stack from jacobian's products
        d = build_dictionary("monomials", n, degree=3)
        assert d.q == q
        rng = np.random.default_rng(q)
        xs = rng.uniform(-10.0, 10.0, size=(400, n))
        xs[:10] = 0.0
        xs[10:20, 0] = -0.0
        xs[20:30] *= 1e-3
        jacs = d.jacobians(xs)
        assert jacs.shape == (400, q, n)
        for x, jac in zip(xs, jacs):
            assert np.array_equal(jac, d.jacobian(x))

    def test_explicit_exponents(self):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        assert d.q == 3
        assert np.allclose(d.evaluate(np.array([2.0, 5.0])), [2.0, 5.0, 4.0])


class TestTrajectoryDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrajectoryDataset(np.zeros((0, 2)), {})


def van_der_pol(x):
    return np.stack([x[..., 1], (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]], axis=-1)


class TestCollectTrajectories:
    def test_drift_sees_only_whole_stacks(self):
        shapes = set()

        def drift(x):
            shapes.add(x.shape)
            return van_der_pol(x)

        data = collect_trajectories(drift, 2, count=7, seed=3)
        assert shapes == {(7, 2)}
        assert data.states.shape == (70, 2)

    def test_each_trajectory_matches_its_own_solve(self):
        # the shared solve holds every trajectory to tol, as a solve of its
        # own does; the two take different steps, so the samples agree to the
        # global error of a 4 s horizon (about 2e2 tol here), not bit for bit
        count, samples, tol = 12, 10, 1e-9
        data = collect_trajectories(van_der_pol, 2, count=count, horizon=4.0,
                                    samples_per_trajectory=samples, tol=tol, seed=5)
        x0s = np.random.default_rng(5).uniform(-2.0, 2.0, size=(count, 2))
        t_eval = np.linspace(0.0, 4.0, samples)
        for i, x0 in enumerate(x0s):
            solo = integrate_ode(lambda t, x: van_der_pol(x), x0, t_eval, tol)
            assert np.allclose(data.states[i * samples:(i + 1) * samples], solo,
                               rtol=1e3 * tol, atol=tol)

    def test_one_escaping_trajectory_fails_the_collection(self):
        # x' = 10 x (x - c) escapes in finite time from x0 > c only; with c
        # between the two largest initial states, one trajectory of 30 escapes
        x0s = np.sort(np.random.default_rng(0).uniform(-2.0, 2.0, size=30))

        def drift(c):
            return lambda x: 10.0 * x * (x - c)

        with pytest.raises(StiffnessError, match="integration failed"):
            collect_trajectories(drift(0.5 * (x0s[-2] + x0s[-1])), 1, seed=0)
        assert collect_trajectories(drift(x0s[-1] + 0.1), 1, seed=0).size == 300

    def test_stiff_drift_stays_cheap(self):
        # one mode at rate -1e5 makes the drift stiff: LSODA's BDF steps need
        # the Jacobian of the whole 1200-dimensional stack, formed as a band
        # from 11 field calls instead of 1200 dense columns
        rates = np.array([1e5, 1.0, 2.0, 3.0, 0.5, 1.5])
        calls = [0]

        def drift(x):
            calls[0] += 1
            return -rates * x + 0.1 * np.tanh(np.roll(x, 1, axis=-1))

        collect_trajectories(drift, 6, count=200, tol=1e-9, seed=0)
        assert calls[0] < 5000


def state_output(x):
    return x.copy()


class TestFitGenerator:
    def test_scalar_linear_is_exact(self):
        d = build_dictionary("identity", 1)
        data = collect_trajectories(lambda x: -x, 1, count=10, seed=1)
        model = fit_koopman(lambda x: -x, state_output, d, data)
        assert np.allclose(model.a, [[-1.0]], atol=1e-12)
        assert model.residual_gain <= 1e-10
        assert model.hurwitz

    def test_slow_manifold_generator(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        model = fit_koopman(slow_manifold_drift, state_output, d, slow_manifold_data)
        assert np.allclose(model.a, SLOW_MANIFOLD_GENERATOR, atol=1e-8)
        assert model.residual_gain <= 1e-8
        assert model.hurwitz

    def test_van_der_pol_identity_dictionary_has_large_residual(self):
        def vdp(x):
            return np.stack([x[..., 1], (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]], axis=-1)

        d = build_dictionary("identity", 2)
        data = collect_trajectories(vdp, 2, count=20, horizon=2.0, box=2.0, seed=2)
        model = fit_koopman(vdp, state_output, d, data)
        assert model.residual_gain > 0.1

    def test_requires_enough_snapshots(self):
        d = build_dictionary("monomials", 2, degree=3)
        tiny = TrajectoryDataset(np.ones((3, 2)), {})
        with pytest.raises(ValueError, match="snapshots"):
            fit_koopman(slow_manifold_drift, state_output, d, tiny)

    def test_hurwitz_flag_matches_spectrum(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        model = fit_koopman(slow_manifold_drift, state_output, d, slow_manifold_data)
        assert model.hurwitz == (np.max(np.linalg.eigvals(model.a).real) < -1e-10)


def fit_output(h, d, data):
    model = fit_koopman(slow_manifold_drift, h, d, data)
    return model.c, model.output_residual


class TestFitOutputMatrix:
    def test_coordinate_output(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        c, residual = fit_output(lambda x: x[..., :1], d, slow_manifold_data)
        assert np.allclose(c, [[1.0, 0.0, 0.0]], atol=1e-10)
        assert residual <= 1e-10

    def test_monomial_output_in_span(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        c, residual = fit_output(lambda x: x[..., :1] ** 2, d, slow_manifold_data)
        assert np.allclose(c, [[0.0, 0.0, 1.0]], atol=1e-10)
        assert residual <= 1e-10

    def test_out_of_span_output_reports_residual(self, slow_manifold_data):
        d = build_dictionary("identity", 2)
        c, residual = fit_output(lambda x: np.sin(x[..., :1]), d, slow_manifold_data)
        phis = slow_manifold_data.states
        ys = np.sin(phis[:, :1])
        ref, *_ = np.linalg.lstsq(phis, ys, rcond=None)
        assert np.allclose(c, ref.T, atol=1e-10)
        assert residual > 1e-3


class TestFitKoopman:
    def test_evaluates_each_callable_once_per_state(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        calls = {"evaluate": 0, "jacobians": 0, "f0": 0, "h": 0}
        rows = []

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                rows.append((name, np.shape(x)))
                return fn(x)

            return wrapper

        counted_d = dataclasses.replace(
            d, evaluate=counted("evaluate", d.evaluate), jacobians=counted("jacobians", d.jacobians)
        )
        fit_koopman(
            counted("f0", slow_manifold_drift), counted("h", state_output), counted_d,
            slow_manifold_data,
        )
        size = slow_manifold_data.size
        # phi, the Jacobians, f0 and h once each, on the whole stack of states
        assert calls == {"evaluate": 1, "jacobians": 1, "f0": 1, "h": 1}
        for name in ("evaluate", "jacobians", "f0", "h"):
            assert (name, (size, 2)) in rows

    def test_model_is_frozen_and_complete(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        model = fit_koopman(slow_manifold_drift, state_output, d, slow_manifold_data)
        assert model.c.shape == (2, d.q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.c = None
