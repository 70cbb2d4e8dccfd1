
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from koopgram.expr import (
    _on_stack,
    _secant_sweep,
    _trees,
    builtin_systems,
    compile_expression,
    system_from_spec,
)

from oracles import evaluate_tree, secant_sweep_by_draw_loop
from test_fuzz import op, trees, var

EXPR_LIFT_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expr_lift_system.json").read_text()
)


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
        fn = compile_expression(tree, 2, 1)
        assert fn(np.array([3.0, 8.0]), np.zeros(1)) == 8.0

    def test_inputs_and_transcendentals(self):
        tree = {
            "op": "mul",
            "args": [
                {"op": "cos", "args": [{"var": "x1"}]},
                {"op": "tanh", "args": [{"var": "u2"}]},
            ],
        }
        fn = compile_expression(tree, 1, 2)
        x, u = np.array([0.5]), np.array([0.0, 1.2])
        assert np.isclose(fn(x, u), np.cos(0.5) * np.tanh(1.2))

    def test_power_with_constant_exponent(self):
        fn = compile_expression({"op": "pow", "args": [{"var": "x1"}, 3]}, 1, 1)
        assert fn(np.array([2.0]), np.zeros(1)) == 8.0

    def test_power_equals_python_power_on_real_cases(self):
        # exponents 2-4 are the left-to-right products, any other is a ** b
        rng = np.random.default_rng(11)
        for _ in range(2000):
            base = float(rng.uniform(0.0, 10.0))
            exponent = float(rng.uniform(-4.0, 4.0))
            for a, b in ((base, exponent), (-base, float(rng.integers(-5, 6)))):
                fn = compile_expression({"op": "pow", "args": [{"const": a}, b]}, 1, 1)
                want = math.prod([a] * int(b)) if b in (2.0, 3.0, 4.0) else a**b
                assert fn(np.zeros(1), np.zeros(1)) == want

    def test_power_without_real_value_rejected(self):
        fn = compile_expression({"op": "pow", "args": [{"var": "x1"}, 1.5]}, 1, 1)
        with pytest.raises(ValueError, match=r"pow\(-2\.0, 1\.5\) has no real value"):
            fn(np.array([-2.0]), np.zeros(1))

    def test_power_with_variable_exponent_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            compile_expression({"op": "pow", "args": [{"var": "x1"}, {"var": "x2"}]}, 2, 1)

    def test_bare_number_is_constant(self):
        fn = compile_expression(1.5, 1, 1)
        assert fn(np.zeros(1), np.zeros(1)) == 1.5

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            compile_expression({"op": "sinh", "args": [{"var": "x1"}]}, 1, 1)

    def test_bad_variable(self):
        with pytest.raises(ValueError, match="bad variable"):
            compile_expression({"var": "y1"}, 1, 1)

    @pytest.mark.parametrize("node", [
        {"op": "tanh", "args": [{"var": "x1"}], "const": 0},
        {"var": "x1", "junk": 1},
        {"const": 1.0, "var": "x1"},
        {"const": 2.0, "junk": None},
        {"op": "neg"},
        {"args": [{"var": "x1"}]},
        {},
    ])
    def test_node_with_a_mixed_or_unknown_key_set_rejected(self, node):
        with pytest.raises(ValueError, match="bad expression node"):
            compile_expression(node, 1, 1)
        with pytest.raises(ValueError, match="bad expression node"):
            compile_expression(op("add", {"var": "x1"}, node), 1, 1)

    def test_mixed_node_in_a_declaration_rejected(self):
        # read as the constant 0 before: the tanh subtree was dropped
        tree = op("add", op("neg", var("x1")), {"op": "tanh", "args": [var("u1")], "const": 0})
        with pytest.raises(ValueError, match="bad expression node"):
            system_from_spec(dict(TANH_FIRST_ORDER_SPEC, f=[tree]))

    def test_variable_index_checked_while_compiling(self):
        with pytest.raises(ValueError, match=r"'x3' is out of range: use x1..x2 or u1..u1"):
            compile_expression({"op": "neg", "args": [{"var": "x3"}]}, 2, 1)
        with pytest.raises(ValueError, match=r"'u2' is out of range: use x1..x2 or u1..u1"):
            compile_expression({"op": "tanh", "args": [{"var": "u2"}]}, 2, 1)


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

    def test_sampled_lipschitz_covers_the_gain_box(self):
        # f = -x1 + 0.01 u1^3: the secant slope 0.01 (u1^2 + u1 u2 + u2^2)
        # is at most 0.27 on [-3, 3] and reaches 0.75 on the default box 5
        cubic = {"op": "mul", "args": [0.01, {"op": "pow", "args": [{"var": "u1"}, 3]}]}
        spec = {"n": 1, "l": 1, "p": 1, "h": [{"var": "x1"}],
                "f": [{"op": "add", "args": [{"op": "neg", "args": [{"var": "x1"}]}, cubic]}]}
        assert 0.5 < system_from_spec(spec).lipschitz_u <= 0.75
        assert 0.2 < system_from_spec({**spec, "gain_box": 3.0}).lipschitz_u <= 0.27

    def test_sampled_lipschitz_does_not_fall_as_the_box_widens(self):
        # tanh u1 is steepest at the origin, where a sweep of the wide
        # default box 5 puts fewer secant pairs than one of [-3, 3]
        spec = {key: value for key, value in TANH_FIRST_ORDER_SPEC.items() if key != "lipschitz_u"}
        narrow = system_from_spec({**spec, "gain_box": 3.0}).lipschitz_u
        assert 0.0 < narrow <= 1.0
        assert system_from_spec(spec).lipschitz_u >= narrow
        assert system_from_spec({**spec, "gain_box": 8.0}).lipschitz_u >= narrow

    def test_variable_out_of_range_rejected(self):
        bad = dict(TANH_FIRST_ORDER_SPEC, f=[{"op": "add", "args": [{"var": "x2"}, {"var": "u1"}]}])
        with pytest.raises(ValueError, match=r"'x2' is out of range: use x1..x1 or u1..u1"):
            system_from_spec(bad)
        bad = dict(TANH_FIRST_ORDER_SPEC, f=[{"op": "sin", "args": [{"var": "u2"}]}])
        with pytest.raises(ValueError, match=r"'u2' is out of range"):
            system_from_spec(bad)

    def test_matrix_form_is_a_x_plus_b_u_with_exact_lipschitz(self):
        a = [[-1.0, 0.5], [0.0, -2.0]]
        b = [[1.0, 0.0], [0.3, -0.7]]
        c = [[1.0, 2.0]]
        sysd = system_from_spec({"n": 2, "l": 2, "p": 1, "f": {"a": a, "b": b}, "h": {"c": c}})
        x, u = np.array([0.4, -1.1]), np.array([0.7, 0.2])
        assert np.array_equal(sysd.f(x, u), np.array(a) @ x + np.array(b) @ u)
        assert np.array_equal(sysd.h(x), np.array(c) @ x)
        # ||b||_2 computed, not sampled
        assert sysd.lipschitz_u == float(np.linalg.norm(np.array(b), 2))

    def test_wrong_arity_rejected(self):
        bad = dict(TANH_FIRST_ORDER_SPEC, n=2)
        with pytest.raises(ValueError, match="derivative expressions"):
            system_from_spec(bad)


def _outcome(evaluate):
    """The value of ``evaluate()``, or the type and text of what it raised."""
    try:
        return evaluate()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestInterpreterOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(trees(n, 3), min_size=n, max_size=n), trees(n, 3, inputs=False))))
    def test_system_equals_recursive_float_evaluation(self, case):
        # f and h equal the tree walk bit for bit, and raise what it raises;
        # the output tree reads the state alone
        n, f_drawn, h_drawn = case
        drawn = [*f_drawn, h_drawn]
        zero = ([0.0] * n, [0.0])
        at_zero = [_outcome(lambda: evaluate_tree(tree, *zero)) for tree in drawn]
        assume(all(isinstance(v, float) and np.isfinite(v) for v in at_zero))
        vanishing = [op("sub", tree, v) for tree, v in zip(drawn, at_zero)]
        spec = {"n": n, "l": 1, "p": 1, "f": vanishing[:n], "h": vanishing[n:], "lipschitz_u": 1.0}
        system = system_from_spec(spec)
        rng = np.random.default_rng(n)
        points = rng.uniform(-3.0, 3.0, size=(60, n + 1))
        # the generator's constants and their negatives zero out some
        # denominators and bases; 1e160 overflows products and powers
        special = [0.0, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e160, -1e160]
        points[:40] = rng.choice(special, size=(40, n + 1))
        rows = {"f": [], "h": []}
        with np.errstate(all="ignore"):
            for point in points:
                x, u = point[:n], point[n:]
                for key, got, want in (
                    ("f", _outcome(lambda: system.f(x, u)),
                     _outcome(lambda: np.array([evaluate_tree(t, x, u) for t in spec["f"]]))),
                    ("h", _outcome(lambda: system.h(x)),
                     _outcome(lambda: np.array([evaluate_tree(t, x, []) for t in spec["h"]]))),
                ):
                    _assert_same(got, want)
                    rows[key].append(want)
            # the whole stack at once: the rows, or what its first failing
            # row raises
            _assert_same(_outcome(lambda: system.f(points[:, :n], points[:, n:])), _stacked(rows["f"]))
            _assert_same(_outcome(lambda: system.h(points[:, :n])), _stacked(rows["h"]))


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


def _stacked(outcomes):
    """The outcome of a stack of points from their single outcomes."""
    raised = [o for o in outcomes if isinstance(o, tuple)]
    return raised[0] if raised else np.array(outcomes)


def _rows(fn, *stacks):
    return np.array([fn(*row) for row in zip(*stacks)])


class TestStackedEvaluation:
    """A system's f and h on a stack: one tree walk, the bits of one call per
    point, and per-point exceptions."""

    def test_every_operator_equals_the_float_walk(self):
        x1, x2, u1 = var("x1"), var("x2"), var("u1")
        square = op("pow", x1, 2)
        declared = [
            op("add", x1, u1), op("sub", x2, x1), op("mul", x1, x2), op("div", x1, op("add", 5.0, x2)),
            op("neg", x2), op("sin", x1), op("cos", op("mul", x2, u1)), op("tanh", op("add", x1, x2)),
            # integer exponents, then fractional ones on non-negative bases
            square, op("pow", x2, 3), op("pow", op("add", 5.0, x1), -1), op("pow", x2, -2),
            op("pow", square, 0.5), op("pow", op("add", 5.0, x2), 1.5), op("pow", op("cos", x1), 2),
            op("pow", op("mul", square, op("tanh", u1)), 1),
            # constant-only trees, one value broadcast to every row
            1.5, {"const": -0.25}, op("cos", 0.7), op("pow", 1.3, 0.5), op("mul", op("tanh", 0.2), 3),
        ]
        fns = _trees("test", declared, len(declared), 2, 1)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-3.0, 3.0, size=(64, 2))
        us = rng.uniform(-3.0, 3.0, size=(64, 1))
        stacked = _on_stack(fns, xs, us)
        assert stacked.shape == (64, len(declared))
        walked = _rows(lambda x, u: [fn(x, u) for fn in fns[0]], xs.tolist(), us.tolist())
        assert np.array_equal(stacked, walked)
        trees_at = lambda x, u: [evaluate_tree(t, x, u) for t in declared]
        assert np.array_equal(stacked, _rows(trees_at, xs, us))

    @pytest.mark.parametrize("name", [s.name for s in builtin_systems()] + ["expr_lift", "matrix"])
    def test_system_stack_equals_single_calls(self, name):
        if name == "expr_lift":
            system = system_from_spec(EXPR_LIFT_SPEC)
        elif name == "matrix":
            system = system_from_spec({"n": 2, "l": 2, "p": 1, "f": {"a": [[-1.0, 0.5], [0.0, -2.0]],
                                       "b": [[1.0, 0.0], [0.3, -0.7]]}, "h": {"c": [[1.0, 2.0]]}})
        else:
            system = next(s for s in builtin_systems() if s.name == name)
        rng = np.random.default_rng(6)
        box = system.gain_box
        xs = rng.uniform(-box, box, size=(53, system.n))
        us = rng.uniform(-box, box, size=(53, system.l))
        assert np.array_equal(system.f(xs, us), _rows(system.f, xs, us))
        assert np.array_equal(system.h(xs), _rows(system.h, xs))
        assert np.array_equal(system.drift(xs), _rows(system.drift, xs))
        assert system.f(xs, us).shape == (53, system.n)
        assert system.h(xs).shape == (53, system.p)

    # f1 = x1 / (x2 + 1) divides by zero at x2 = -1; x1^1.5 has no real value
    # at x1 < 0; x2^400 overflows at x2 = 10
    RAISING = {"n": 2, "l": 1, "p": 1, "lipschitz_u": 1.0, "h": [op("mul", var("x1"), var("x2"))],
               "f": [op("div", var("x1"), op("add", var("x2"), 1.0)),
                     op("add", op("add", op("pow", var("x1"), 1.5), op("pow", var("x2"), 400)), var("u1"))]}

    @pytest.mark.parametrize("bad, raised", [
        ([1.0, -1.0], ZeroDivisionError), ([-1.0, 0.5], ValueError), ([1.0, 10.0], OverflowError),
        ([np.inf, -1.0], ZeroDivisionError),
    ])
    def test_stack_raises_what_its_failing_point_raises(self, bad, raised):
        system = system_from_spec(self.RAISING)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.1, 2.0, size=(20, 2))
        us = rng.uniform(-1.0, 1.0, size=(20, 1))
        xs[7] = bad
        with pytest.raises(raised) as alone:
            system.f(xs[7], us[7])
        with pytest.raises(raised) as stacked:
            system.f(xs, us)
        assert str(stacked.value) == str(alone.value)

    def test_first_failing_row_decides_the_exception(self):
        system = system_from_spec(self.RAISING)
        xs = np.array([[0.5, 0.5], [-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(ValueError, match="no real value"):
            system.f(xs, np.zeros((3, 1)))
        with pytest.raises(ZeroDivisionError):
            system.f(xs[::-1], np.zeros((3, 1)))

    def test_overflow_that_floats_let_through_is_returned(self):
        # x1 * x2 overflows to inf without an exception in float arithmetic
        system = system_from_spec(self.RAISING)
        xs = np.array([[0.5, 0.5], [1e200, 1e200]])
        got = system.h(xs)
        assert np.array_equal(got, _rows(system.h, xs))
        assert got[1, 0] == np.inf

    @pytest.mark.parametrize("exponent", [2, 3, 4, 2.5])
    def test_power_walks_and_oracle_agree_bit_for_bit(self, exponent):
        # negative bases, signed zeros, subnormals, bases whose power is
        # subnormal or just below the overflow, and powers that math.pow
        # rounds differently; the last row overflows
        rng = np.random.default_rng(8)
        small, big = 1e-310 ** (1 / exponent), 0.9 * 1.7e308 ** (1 / exponent)
        bases = np.concatenate([
            rng.uniform(-5.0, 5.0, size=400), [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308],
            [small, -small, big, -big], [1e200],
        ])
        if exponent == 2.5:
            bases = np.where(bases < 0.0, -bases, bases)  # real values only; -0.0 stays
        spec = {"n": 1, "l": 1, "p": 1, "lipschitz_u": 1.0, "h": [var("x1")],
                "f": [op("pow", var("x1"), exponent)]}
        system = system_from_spec(spec)
        xs, us = bases[:, None], np.zeros((bases.size, 1))
        walked = [_outcome(lambda: system.f(x, u)[0]) for x, u in zip(xs, us)]
        oracle = [_outcome(lambda: evaluate_tree(spec["f"][0], x, u)) for x, u in zip(xs, us)]
        assert walked[:-1] == oracle[:-1]
        assert np.array_equal(np.array(walked[:-1]), np.array(oracle[:-1]))
        assert [np.signbit(v) for v in walked[:-1]] == [np.signbit(v) for v in oracle[:-1]]
        assert walked[-1] == oracle[-1] == (OverflowError, f"pow(1e+200, {float(exponent)!r}) overflows")
        stacked = system.f(xs[:-1], us[:-1])[:, 0]
        assert np.array_equal(stacked, np.array(walked[:-1]))
        assert [np.signbit(v) for v in stacked] == [np.signbit(v) for v in walked[:-1]]
        if exponent != 2.5:
            assert np.array_equal(stacked, math.prod([bases[:-1]] * exponent))
        # the stack falls back row by row and raises what the row raises
        assert _outcome(lambda: system.f(xs, us)) == walked[-1]

    def test_constant_power_that_overflows_raises_on_a_stack(self):
        # a constant base stays one float in the stacked walk, where its
        # product would overflow to inf without an exception
        fns = _trees("test", [op("add", var("x1"), op("pow", 1e200, 3))], 1, 1, 1)
        with pytest.raises(OverflowError, match=r"pow\(1e\+200, 3\.0\) overflows"):
            _on_stack(fns, np.zeros((4, 1)), np.zeros((4, 1)))

    def test_input_stack_must_match_the_states(self):
        system = system_from_spec(self.RAISING)
        with pytest.raises(ValueError, match=r"\(3, l\) stack of inputs"):
            system.f(np.zeros((3, 2)), np.zeros(3))

    @pytest.mark.parametrize("box, value", [(3.0, 0.8719), (5.0, 0.6473)])
    def test_secant_sweep_equals_per_draw_loop(self, box, value):
        system = system_from_spec(EXPR_LIFT_SPEC)
        swept = _secant_sweep(system.f, system.n, system.l, box)
        assert swept == secant_sweep_by_draw_loop(system.f, system.n, system.l, box)
        assert round(swept, 4) == value
