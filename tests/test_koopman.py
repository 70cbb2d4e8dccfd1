import numpy as np
import pytest

from koopgram.koopman import (
    TrajectoryDataset,
    build_dictionary,
    collect_trajectories,
    fit_generator,
    fit_output_matrix,
)


def slow_manifold_drift(x):
    return np.array([-x[0], -2.0 * (x[1] - x[0] ** 2)])


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

    def test_explicit_exponents(self):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        assert d.q == 3
        assert np.allclose(d.evaluate(np.array([2.0, 5.0])), [2.0, 5.0, 4.0])

    def test_user_dictionary_must_vanish_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            build_dictionary(
                "user",
                1,
                q=2,
                evaluate=lambda x: np.array([x[0], x[0] + 1.0]),
                jacobian=lambda x: np.array([[1.0], [1.0]]),
            )

    def test_user_dictionary_must_be_state_inclusive(self):
        with pytest.raises(ValueError, match="state-inclusive"):
            build_dictionary(
                "user",
                1,
                q=1,
                evaluate=lambda x: np.array([2.0 * x[0]]),
                jacobian=lambda x: np.array([[2.0]]),
            )

    def test_user_dictionary_bad_jacobian_rejected(self):
        with pytest.raises(ValueError, match="finite differences"):
            build_dictionary(
                "user",
                1,
                q=2,
                evaluate=lambda x: np.array([x[0], np.sin(x[0])]),
                jacobian=lambda x: np.array([[1.0], [1.0]]),
            )


class TestTrajectoryDataset:
    def test_csv_roundtrip(self, tmp_path, slow_manifold_data):
        path = tmp_path / "data.csv"
        slow_manifold_data.save_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2"
        back = TrajectoryDataset.load_csv(path)
        assert np.array_equal(back.states, slow_manifold_data.states)
        assert np.array_equal(back.times, slow_manifold_data.times)
        assert back.provenance == slow_manifold_data.provenance

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrajectoryDataset(np.zeros((0, 2)), np.zeros(0), {})


class TestFitGenerator:
    def test_scalar_linear_is_exact(self):
        d = build_dictionary("identity", 1)
        data = collect_trajectories(lambda x: -x, 1, count=10, seed=1)
        model = fit_generator(lambda x: -x, d, data)
        assert np.allclose(model.a, [[-1.0]], atol=1e-12)
        assert model.residual_gain <= 1e-10
        assert model.hurwitz

    def test_slow_manifold_generator(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        model = fit_generator(slow_manifold_drift, d, slow_manifold_data)
        assert np.allclose(model.a, SLOW_MANIFOLD_GENERATOR, atol=1e-8)
        assert model.residual_gain <= 1e-8
        assert model.hurwitz

    def test_van_der_pol_identity_dictionary_has_large_residual(self):
        def vdp(x):
            return np.array([x[1], (1.0 - x[0] ** 2) * x[1] - x[0]])

        d = build_dictionary("identity", 2)
        data = collect_trajectories(vdp, 2, count=20, horizon=2.0, box=2.0, seed=2)
        model = fit_generator(vdp, d, data)
        assert model.residual_gain > 0.1

    def test_requires_enough_snapshots(self):
        d = build_dictionary("monomials", 2, degree=3)
        tiny = TrajectoryDataset(np.ones((3, 2)), np.zeros(3), {})
        with pytest.raises(ValueError, match="snapshots"):
            fit_generator(slow_manifold_drift, d, tiny)

    def test_rank_deficient_data_without_ridge_rejected(self):
        d = build_dictionary("monomials", 2, degree=2)
        # states confined to a line cannot span the monomial observables
        line = np.outer(np.linspace(0.1, 2.0, 30), [1.0, 0.5])
        data = TrajectoryDataset(line, np.zeros(30), {})
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            fit_generator(slow_manifold_drift, d, data, ridge=0.0)

    def test_hurwitz_flag_matches_spectrum(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        model = fit_generator(slow_manifold_drift, d, slow_manifold_data)
        assert model.hurwitz == (np.max(np.linalg.eigvals(model.a).real) < -1e-10)


class TestFitOutputMatrix:
    def test_coordinate_output(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        c, residual = fit_output_matrix(lambda x: np.array([x[0]]), d, slow_manifold_data)
        assert np.allclose(c, [[1.0, 0.0, 0.0]], atol=1e-10)
        assert residual <= 1e-10

    def test_monomial_output_in_span(self, slow_manifold_data):
        d = build_dictionary("monomials", 2, exponents=SLOW_MANIFOLD_EXPONENTS)
        c, residual = fit_output_matrix(lambda x: np.array([x[0] ** 2]), d, slow_manifold_data)
        assert np.allclose(c, [[0.0, 0.0, 1.0]], atol=1e-10)
        assert residual <= 1e-10

    def test_out_of_span_output_reports_residual(self, slow_manifold_data):
        d = build_dictionary("identity", 2)
        c, residual = fit_output_matrix(lambda x: np.array([np.sin(x[0])]), d, slow_manifold_data)
        phis = slow_manifold_data.states
        ys = np.sin(phis[:, :1])
        ref, *_ = np.linalg.lstsq(phis, ys, rcond=None)
        assert np.allclose(c, ref.T, atol=1e-10)
        assert residual > 1e-3
