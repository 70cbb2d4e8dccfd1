
import numpy as np
import pytest

from koopgram.expr import compile_expression, system_from_spec


TANH_FIRST_ORDER_SPEC = {
    "name": "tanh_expr",
    "n": 1,
    "l": 1,
    "p": 1,
    "f": [
        {"op": "add", "args": [{"op": "neg", "args": [{"var": "x1"}]}, {"op": "tanh", "args": [{"var": "u1"}]}]}
    ],
    "h": [{"var": "x1"}],
    "lipschitz_u": 1.0,
}


class TestCompileExpression:
    def test_arithmetic(self):
        tree = {
            "op": "add",
            "args": [
                {"op": "mul", "args": [{"const": 2.0}, {"var": "x1"}]},
                {"op": "div", "args": [{"var": "x2"}, {"const": 4.0}]},
            ],
        }
        fn = compile_expression(tree)
        assert fn(np.array([3.0, 8.0]), np.zeros(1)) == 8.0

    def test_inputs_and_transcendentals(self):
        tree = {
            "op": "mul",
            "args": [
                {"op": "cos", "args": [{"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u2"}]},
            ],
        }
        fn = compile_expression(tree)
        x, u = np.array([0.5]), np.array([0.0, 1.2])
        assert np.isclose(fn(x, u), np.cos(0.5) * np.tanh(1.2))

    def test_power_with_constant_exponent(self):
        fn = compile_expression({"op": "pow", "args": [{"var": "x1"}, 3]})
        assert fn(np.array([2.0]), np.zeros(1)) == 8.0

    def test_power_equals_python_power_on_real_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            base = float(rng.uniform(0.0, 10.0))
            exponent = float(rng.uniform(-4.0, 4.0))
            for a, b in ((base, exponent), (-base, float(rng.integers(-5, 6)))):
                fn = compile_expression({"op": "pow", "args": [{"const": a}, b]})
                assert fn(np.zeros(1), np.zeros(1)) == a**b

    def test_power_without_real_value_rejected(self):
        fn = compile_expression({"op": "pow", "args": [{"var": "x1"}, 1.5]})
        with pytest.raises(ValueError, match=r"pow\(-2\.0, 1\.5\) has no real value"):
            fn(np.array([-2.0]), np.zeros(1))

    def test_power_with_variable_exponent_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            compile_expression({"op": "pow", "args": [{"var": "x1"}, {"var": "x2"}]})

    def test_bare_number_is_constant(self):
        fn = compile_expression(1.5)
        assert fn(np.zeros(1), np.zeros(1)) == 1.5

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            compile_expression({"op": "sinh", "args": [{"var": "x1"}]})

    def test_bad_variable(self):
        with pytest.raises(ValueError, match="bad variable"):
            compile_expression({"var": "y1"})


class TestSystemFromSpec:
    def test_dynamics_match_declaration(self):
        sysd = system_from_spec(TANH_FIRST_ORDER_SPEC)
        x, u = np.array([0.4]), np.array([0.7])
        assert np.allclose(sysd.f(x, u), -x + np.tanh(u))
        assert np.allclose(sysd.h(x), x)
        assert sysd.lipschitz_u == 1.0

    def test_origin_violation_rejected(self):
        bad = dict(TANH_FIRST_ORDER_SPEC)
        bad["f"] = [{"op": "add", "args": [{"var": "x1"}, {"const": 1.0}]}]
        with pytest.raises(ValueError, match="vanish"):
            system_from_spec(bad)

    def test_nan_at_origin_rejected(self):
        # inf - inf: f(0, 0) is NaN, which a "norm > tol" test lets through
        inf = {"op": "mul", "args": [1e308, 10]}
        bad = dict(TANH_FIRST_ORDER_SPEC)
        bad["f"] = [{"op": "add", "args": [{"op": "sub", "args": [inf, inf]}, {"var": "x1"}]}]
        with pytest.raises(ValueError, match="vanish"):
            system_from_spec(bad)

    def test_sampled_lipschitz_fallback(self):
        spec = {k: v for k, v in TANH_FIRST_ORDER_SPEC.items() if k != "lipschitz_u"}
        sysd = system_from_spec(spec)
        assert 0.5 <= sysd.lipschitz_u <= 1.0  # sampled slope of tanh

    def test_variable_out_of_range_rejected(self):
        bad = dict(TANH_FIRST_ORDER_SPEC, f=[{"op": "add", "args": [{"var": "x2"}, {"var": "u1"}]}])
        with pytest.raises(ValueError, match=r"'x2' is out of range: use x1..x1 or u1..u1"):
            system_from_spec(bad)
        bad = dict(TANH_FIRST_ORDER_SPEC, f=[{"op": "sin", "args": [{"var": "u2"}]}])
        with pytest.raises(ValueError, match=r"'u2' is out of range"):
            system_from_spec(bad)

    def test_wrong_arity_rejected(self):
        bad = dict(TANH_FIRST_ORDER_SPEC, n=2)
        with pytest.raises(ValueError, match="derivative expressions"):
            system_from_spec(bad)
