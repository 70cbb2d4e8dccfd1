"""Random small expression systems and configs through ``koopgram run``.

Every draw must end in a documented outcome: exit 0 with PASS or SKIPPED
rows, exit 1 with one ``error ...`` line, or exit 2 with a FAIL row that
the verdict rule explains.  Never a traceback.
"""

import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koopgram.cli import main
from koopgram.expr import compile_expression
from koopgram.harness import VERDICT_CUSHION
from koopgram.linalg import MIN_ODE_TOL

UNARY = ("neg", "sin", "cos", "tanh")
BINARY = ("add", "sub", "mul", "div")


def op(name, *args):
    return {"op": name, "args": list(args)}


def var(name):
    return {"var": name}


def trees(n: int, depth: int):
    """Expression trees over ``x1..xn`` and ``u1`` of depth at most ``depth``."""
    leaf = st.one_of(
        st.sampled_from([0.3, -0.5, 1.0, -2.0, 3.0]),
        st.sampled_from([f"x{i + 1}" for i in range(n)] + ["u1"]).map(var),
    )
    if depth == 0:
        return leaf
    sub = trees(n, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(UNARY), sub).map(lambda a: op(*a)),
        st.tuples(st.sampled_from(BINARY), sub, sub).map(lambda a: op(*a)),
        st.tuples(sub, st.sampled_from([2, 3, 0.5, -1])).map(lambda a: op("pow", *a)),
    )


def vanishing(tree, n: int):
    """``tree`` minus its value at the origin, so that it vanishes there; a
    tree with no value at the origin is kept, to be rejected by the run."""
    try:
        at_zero = compile_expression(tree, n, 1)([0.0] * n, [0.0])
    except (ValueError, ArithmeticError):
        return tree
    return op("sub", tree, at_zero)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 2))
    # f_i = -damping x_i + actuation u1 + (a tree that vanishes at the origin)
    f = [
        op("add",
           op("add", op("mul", -draw(st.sampled_from([1.0, 3.0])), var(f"x{i + 1}")),
              op("mul", draw(st.sampled_from([1.0, 0.5])), var("u1"))),
           vanishing(draw(trees(n, draw(st.integers(0, 3)))), n))
        for i in range(n)
    ]
    # h = x1 (+ c x2): in the span of every dictionary, which must span h
    c = draw(st.sampled_from([0.5, -1.0, 0.0]))
    h = var("x1") if n == 1 else op("add", var("x1"), op("mul", c, var("x2")))
    spec = {
        "name": "fuzz", "n": n, "l": 1, "p": 1, "f": f, "h": [h],
        "lipschitz_u": draw(st.sampled_from([None, 1.0, 5.0, 0.0])),
        "gain_box": draw(st.sampled_from([1.0, 0.3, 5.0])),
    }
    dictionary = draw(st.sampled_from(
        [None, {"kind": "identity"}, {"kind": "monomials", "degree": 2}]))
    return spec if dictionary is None else {**spec, "dictionary": dictionary}


BELOW_FLOOR = [MIN_ODE_TOL / 2, 1e-14, 1e-300, 0.0]
# (path, value): one value out of its documented range
OUT_OF_RANGE = (
    [(("ode_tol",), tol) for tol in BELOW_FLOOR] + [(("data", "tol"), tol) for tol in BELOW_FLOOR]
    + [(("gain_box",), 0.0), (("gain_box",), -1.0), (("horizon",), -1.0), (("horizon",), 0.0),
       (("ensemble_count",), 0), (("sample_budget",), 99), (("reduction_orders",), [0]),
       (("seed",), -1), (("data", "box"), 0.0), (("data", "box"), -0.5),
       (("data", "trajectories"), 0), (("system", "gain_box"), 0.0),
       (("system", "lipschitz_u"), -1.0)]
)


@st.composite
def configs(draw):
    config = draw(st.fixed_dictionaries({
        "system": systems(),
        "reduction_orders": st.sampled_from([[1], [1, 2], [2], [3]]),
        "ensemble_count": st.sampled_from([2, 1]),
        "sample_budget": st.sampled_from([100, 150]),
        "ode_tol": st.one_of(st.sampled_from([1e-7, MIN_ODE_TOL]), st.floats(1e-12, 1e-4)),
        "gain_box": st.one_of(st.none(), st.floats(0.1, 6.0)),
        "horizon": st.one_of(st.none(), st.floats(0.5, 20.0)),
        "data": st.fixed_dictionaries({
            "trajectories": st.just(4),
            "box": st.floats(0.1, 2.0),
            "tol": st.one_of(st.sampled_from([1e-9, MIN_ODE_TOL]), st.floats(1e-12, 1e-6)),
        }),
    }))
    if draw(st.integers(0, 3)) == 0:
        path, value = draw(st.sampled_from(OUT_OF_RANGE))
        config[path[0]] = value if len(path) == 1 else {**config[path[0]], path[1]: value}
    return config


def test_random_systems_and_configs_end_in_documented_outcomes():
    # about 9 s on a 2-core host; most draws end early in a documented error
    codes, fail_rows = Counter(), []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs())
    def run(config):
        with tempfile.TemporaryDirectory() as tmp:
            config = {**config, "output_dir": str(Path(tmp) / "out")}
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(path)])
            codes[code] += 1
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 1:
                assert err.startswith("error") and err.count("\n") == 1, err
                return
            assert err == ""
            rows = json.loads((Path(tmp) / "out" / "report.json").read_text())["rows"]
            fails = [row for row in rows if row["verdict"] == "FAIL"]
            assert code == (2 if fails else 0)
            for row in fails:
                bound = row["total_bound"]
                assert row["excluded"] > 0 or row["empirical"] > bound + VERDICT_CUSHION
            fail_rows.extend(fails)

    run()
    print(f"exit codes {dict(codes)}; FAIL rows: {len(fail_rows)}")
