import math
import resource
import time
import warnings

import numpy as np
import pytest

from koopgram.linalg import (
    MIN_ODE_TOL,
    LtiSystem,
    SpectrumError,
    StiffnessError,
    _imaginary_axis_crossings,
    hinf_norm,
    integrate_ode,
    list_field,
    pinv,
    solve_lyapunov,
)

from oracles import (
    hinf_by_refined_sweep,
    hinf_by_sweep,
    lyapunov_by_quadrature,
    random_stable_system,
    rk4_fixed_step,
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

    @staticmethod
    def random_systems():
        rng = np.random.default_rng(9)
        for k in range(40):
            n, l, p = (int(v) for v in rng.integers(1, 7, size=3))
            a, b, c = random_stable_system(rng, n, l, p)
            for cm in (c, np.eye(n)):
                yield a, b, cm

    def test_upper_bound_within_tolerance_of_dense_sweep(self):
        # the refined sweep reads at least the 20,001-point dense sweep on
        # each of these systems, in an eighth of its time
        for a, b, cm in self.random_systems():
            ref = hinf_by_refined_sweep(a, b, cm)
            assert ref <= hinf_norm(LtiSystem(a, b, cm)) <= (1 + 1e-4) * ref

    def test_returned_level_has_no_crossing(self):
        first_order = [([[-1.0]], [[1.0]], [[1.0]]), ([[-2.0]], [[3.0]], [[1.0]])]
        for a, b, c in [*self.random_systems(), *first_order]:
            a, b, c = (np.asarray(m, float) for m in (a, b, c))
            gamma = hinf_norm(LtiSystem(a, b, c))
            ham = np.block([[a, b @ b.T / gamma], [-c.T @ c / gamma, -a.T]])
            assert _imaginary_axis_crossings(ham).size == 0

    def test_near_marginal_pole_raises_within_a_second(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to bracket the peak gain"):
            hinf_norm(LtiSystem([[-1e-12]], [[1.0]], [[1.0]]))
        assert time.perf_counter() - start < 1.0


class TestListField:
    def test_adapter_makes_one_read_only_input_per_tuple(self):
        seen = []

        def f(x, u):
            seen.append(u)
            return x + u[0]

        point, u = list_field(f), (1.0,)
        assert point([1.0, 2.0], u) == [2.0, 3.0]
        assert point([0.0, 0.0], u) == [1.0, 1.0]
        assert seen[0] is seen[1] and not seen[0].flags.writeable
        # a list input can change in place, so it is converted at every call
        v = [1.0]
        assert point([0.0], v) == [1.0]
        v[0] = 2.0
        assert point([0.0], v) == [2.0]


class TestIntegrateOde:
    def test_scalar_exponential(self):
        x = integrate_ode(lambda t, x: -x, [1.0], [0.0, 1.0], 1e-10)
        assert abs(x[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_zero_field(self):
        x = integrate_ode(lambda t, x: np.zeros_like(x), [2.0, -1.0], np.linspace(0, 3, 7), 1e-8)
        assert np.allclose(x, [2.0, -1.0])

    def test_matches_fixed_step_oracle(self):
        def field(t, x):
            return np.array([-x[0], -2.0 * (x[1] - x[0] ** 2)])

        x = integrate_ode(field, [1.0, 2.0], [0.0, 2.0], 1e-10)
        ref = rk4_fixed_step(field, [1.0, 2.0], 0.0, 2.0, 4000)
        assert np.linalg.norm(x[-1] - ref) <= 1e-7

    def test_halving_tol_reduces_error_monotonically(self):
        errs = []
        for k in range(6):
            tol = 1e-4 / 2**k
            x = integrate_ode(lambda t, x: -x, [1.0], [0.0, 1.0], tol)
            errs.append(abs(x[-1, 0] - math.exp(-1.0)))
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_rejects_bad_window(self):
        # the window is t_eval: a reversed one is refused
        with pytest.raises(ValueError):
            integrate_ode(lambda t, x: -x, [1.0], [1.0, 0.0], 1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8, 2e-14])
    def test_rejects_bad_tol(self, tol):
        # odeint reports success with rtol = NaN, on a wrong state, and
        # LSODA refuses tolerances below the floor
        with pytest.raises(ValueError, match="tol must be finite and at least"):
            integrate_ode(lambda t, x: -x, [1.0], [0.0, 1.0], tol)

    def test_accepts_the_tolerance_floor(self):
        x = integrate_ode(lambda t, x: -x, [1.0], [0.0, 1.0], MIN_ODE_TOL)
        assert abs(x[-1, 0] - math.exp(-1.0)) <= 1e-12

    def test_single_time_returns_the_initial_state(self):
        assert np.array_equal(integrate_ode(lambda t, x: -x, [1.0, 2.0], [0.5], 1e-8), [[1.0, 2.0]])

    @pytest.mark.parametrize(
        "t_eval",
        [[], [0.5, 0.5], [0.5, 0.2], [-float("inf"), 0.5], [0.5, float("inf")],
         [0.0, float("nan"), 1.0]],
    )
    def test_rejects_bad_t_eval(self, t_eval):
        with pytest.raises(ValueError, match="t_eval must increase strictly"):
            integrate_ode(lambda t, x: -x, [1.0], t_eval, 1e-8)

    def test_error_control_is_per_component(self):
        # the step test bounds each component's scaled error, so inert zero
        # components appended to a system leave its trajectory bit-identical
        def driven(t, x):
            return np.array([-x[0] + np.sin(3.0 * t) + 0.3 * np.tanh(x[0]) ** 3])

        def padded(t, s):
            ds = np.zeros(s.shape)
            ds[:1] = driven(t, s[:1])
            return ds

        grid = np.linspace(0.0, 10.0, 2001)
        alone = integrate_ode(driven, [0.0], grid, 1e-8)
        for extra in (1, 4, 16):
            x = integrate_ode(padded, np.zeros(1 + extra), grid, 1e-8)
            assert np.array_equal(x[:, :1], alone)
            assert not np.any(x[:, 1:])

    @pytest.mark.parametrize(
        "field",
        [
            lambda t, x: x * x,  # x(t) = 1 / (1 - t) has a pole at t = 1
            lambda t, x: -x if t < 0.5 else np.full_like(x, np.nan),
        ],
        ids=["finite-time-blowup", "nan-field"],
    )
    def test_failure_raises_stiffness_error_without_warnings(self, field):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StiffnessError, match="integration failed"):
                integrate_ode(field, [1.0], np.linspace(0.0, 2.0, 2001), 1e-8)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_entry_raises(self, bad):
        def field(t, x):
            return -x if t < 0.5 else np.array([1.0, bad, 2.0])

        with pytest.raises(StiffnessError, match=r"^integration failed: non-finite field value at t = 0\.5"):
            integrate_ode(field, [1.0, 1.0, 1.0], np.linspace(0.0, 2.0, 11), 1e-8)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_finite_entries_whose_squares_overflow_integrate(self, scale):
        # the sum of squares overflows, the entries are finite: the solve
        # runs to the end, its states exact to the tolerance, and the
        # screen's overflow warning stays inside integrate_ode
        def field(t, x):
            return np.array([scale, -0.5 * scale]) * np.cos(t)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = integrate_ode(field, [scale, scale], np.linspace(0.0, 3.0, 7), 1e-8)
        assert caught == []
        assert np.allclose(x[-1] / scale, [1.0 + math.sin(3.0), 1.0 - 0.5 * math.sin(3.0)], rtol=1e-6)
        # numpy set to raise on overflow leaves the decision to the entrywise test
        with np.errstate(over="raise"):
            assert np.array_equal(integrate_ode(field, [scale, scale], np.linspace(0.0, 3.0, 7), 1e-8), x)

    def test_field_warnings_still_show(self):
        def field(t, x):
            np.array([1e200]).dot(np.array([1e200]))
            return -x

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate_ode(field, [1.0], [0.0, 1.0], 1e-8)
        assert caught and {str(w.message) for w in caught} == {"overflow encountered in dot"}

    def test_sequence_field_values_are_accepted(self):
        # the screen needs an array; a list or a scalar gets the entrywise test
        for field in (lambda t, x: [-x[0]], lambda t, x: -x[0]):
            x = integrate_ode(field, [1.0], [0.0, 1.0], 1e-10)
            assert abs(x[-1, 0] - math.exp(-1.0)) <= 1e-8
        with pytest.raises(StiffnessError, match="non-finite field value"):
            integrate_ode(lambda t, x: [math.nan], [1.0], [0.0, 1.0], 1e-8)

    def test_repeated_solves_do_not_grow_memory(self):
        def solve():
            integrate_ode(lambda t, x: -x, [1.0, 2.0], np.linspace(0.0, 1.0, 11), 1e-8)

        for _ in range(2000):  # let the heap settle first
            solve()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        for _ in range(2000):
            solve()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 1024
