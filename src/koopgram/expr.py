"""Tiny expression-tree interpreter for user-defined dynamics.

Systems are declared in JSON as one expression tree per state derivative
and per output coordinate, over the state variables ``x1..xn`` and inputs
``u1..ul``.  Supported operators: add, sub, mul, div, neg, sin, cos, tanh,
pow (with a constant exponent; a power with no real value, such as a
negative base to a fractional exponent, raises ``ValueError``).  Trees
evaluate to plain floats, so the same declaration drives simulation, gain
sampling, and Lie-derivative targets without compiling user code.

``check_fields`` is the one checker of user declarations: it serves one
table per declaration, the inline system spec and the dictionary here, the
config and its ``data`` in ``pipeline``.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .harness import ControlSystem

__all__ = ["compile_expression", "system_from_spec"]

# key -> (accepted types, bound): a bound is None, "positive", or a number L
# meaning "at least L"; a None value is never bounded
_SPEC_FIELDS = {
    "n": (numbers.Integral, 1), "l": (numbers.Integral, 1), "p": (numbers.Integral, 1),
    "f": (list, None), "h": (list, None), "name": (str, None),
    "lipschitz_u": ((numbers.Real, type(None)), 0), "gain_box": (numbers.Real, "positive"),
    "slack": (numbers.Real, 1), "dictionary": (dict, None),
}
_DICTIONARY_FIELDS = {
    "kind": (str, None), "degree": (numbers.Integral, 1), "exponents": (list, None),
}


def check_type(name: str, value, types) -> None:
    """Reject a value not of ``types``; a bool is not a number, a real must be finite."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    if isinstance(value, numbers.Real) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_fields(where: str, values: dict, fields: dict, required=()) -> None:
    """Check the declaration ``values`` against its table ``fields``.

    An unknown or missing key, a value of the wrong type, or a value out of
    its bound raises ``ValueError``.  Values are named ``"<where> <key>"``;
    a config's own keys are named bare.
    """
    check_type(where, values, dict)
    unknown = sorted(set(values) - set(fields))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known: {list(fields)}")
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"missing {where} keys {missing}")
    for key, value in values.items():
        name = key if where == "config" else f"{where} {key}"
        types, bound = fields[key]
        check_type(name, value, types)
        if value is None or bound is None or (value > 0 if bound == "positive" else value >= bound):
            continue
        rule = "positive" if bound == "positive" else f"at least {bound:.3g}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_dictionary(where: str, spec: dict) -> None:
    """Check a dictionary declaration: its table, then the ``kind`` rule: kind
    ``identity`` alone, or kind ``monomials`` with ``degree`` or ``exponents``."""
    check_fields(where, spec, _DICTIONARY_FIELDS, required=("kind",))
    if (spec["kind"], len(spec) > 1) not in (("identity", False), ("monomials", True)):
        raise ValueError(f"{where} must be kind 'identity' alone or kind 'monomials' with "
                         f"degree or exponents, got {spec!r}")
    for row in spec.get("exponents", []):
        check_type(f"{where} exponent", row, list)
        for power in row:
            check_type(f"{where} exponent", power, numbers.Integral)


def _pow(a: float, b: float) -> float:
    # math.pow equals ** on real results; where ** turns complex (negative
    # base, fractional exponent) or divides by zero, math.pow raises
    try:
        return math.pow(a, b)
    except ValueError:
        raise ValueError(f"pow({a!r}, {b!r}) has no real value") from None


_UNARY = {
    "neg": lambda a: -a,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
}

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": _pow,
}


def _is_constant(tree) -> bool:
    return isinstance(tree, (int, float)) or (isinstance(tree, dict) and "const" in tree)


def compile_expression(tree, n: int, l: int) -> Callable[[np.ndarray, np.ndarray], float]:
    """Compile a JSON expression tree over ``x1..xn`` and ``u1..ul`` into
    ``(x, u) -> float``."""
    if _is_constant(tree):
        value = tree["const"] if isinstance(tree, dict) else tree
        check_type("expression constant", value, numbers.Real)
        value = float(value)
        return lambda x, u: value
    if not isinstance(tree, dict):
        raise ValueError(f"bad expression node: {tree!r}")
    if "var" in tree:
        name = tree["var"]
        if not (isinstance(name, str) and name[:1] in ("x", "u") and name[1:].isdigit()
                and int(name[1:]) >= 1):
            raise ValueError(f"bad variable {name!r}: use x1..xn or u1..ul")
        # checked here, where the dimensions are known, not as an IndexError
        # at evaluation
        if int(name[1:]) > (n if name[0] == "x" else l):
            raise ValueError(f"variable {name!r} is out of range: use x1..x{n} or u1..u{l}")
        k = int(name[1:]) - 1
        if name[0] == "x":
            return lambda x, u: float(x[k])
        return lambda x, u: float(u[k])
    if "op" in tree:
        op = tree["op"]
        check_type("expression operator", op, str)
        args = tree.get("args", [])
        check_type(f"{op} arguments", args, list)
        if op in _UNARY:
            if len(args) != 1:
                raise ValueError(f"{op} takes one argument")
            inner = compile_expression(args[0], n, l)
            fn = _UNARY[op]
            return lambda x, u: float(fn(inner(x, u)))
        if op in _BINARY:
            if len(args) != 2:
                raise ValueError(f"{op} takes two arguments")
            if op == "pow" and not _is_constant(args[1]):
                raise ValueError("pow exponent must be a constant")
            left = compile_expression(args[0], n, l)
            right = compile_expression(args[1], n, l)
            fn = _BINARY[op]
            return lambda x, u: float(fn(left(x, u), right(x, u)))
        raise ValueError(f"unknown operator {op!r}")
    raise ValueError(f"bad expression node: {tree!r}")


def _sampled_lipschitz_u(f, n: int, l: int) -> float:
    """Sampled bound on the sensitivity of f to its input argument."""
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(400):
        x = rng.uniform(-3.0, 3.0, size=n)
        u1 = rng.uniform(-3.0, 3.0, size=l)
        u2 = rng.uniform(-3.0, 3.0, size=l)
        du = np.linalg.norm(u1 - u2)
        if du == 0.0:
            continue
        best = max(best, float(np.linalg.norm(f(x, u1) - f(x, u2)) / du))
    return best


def system_from_spec(spec: dict) -> ControlSystem:
    """Build a control system from a JSON declaration.

    Required keys: ``n``, ``l``, ``p`` (positive integers), ``f`` (a list of
    n trees), ``h`` (a list of p trees).  Optional: ``name`` (a string),
    ``lipschitz_u`` (non-negative; sampled when absent or null),
    ``gain_box`` (positive), ``slack`` (at least 1), ``dictionary`` (as in a
    pipeline config); ``ControlSystem`` supplies the defaults.  The whole
    declaration is checked before anything is built: an unknown or missing
    key, a value of the wrong type or out of range, a malformed tree, or a
    variable outside ``x1..xn`` or ``u1..ul`` raises ``ValueError``.
    """
    check_fields("system", spec, _SPEC_FIELDS, required=("n", "l", "p", "f", "h"))
    if "dictionary" in spec:
        check_dictionary("system dictionary", spec["dictionary"])
    n, l, p = int(spec["n"]), int(spec["l"]), int(spec["p"])
    f_trees, h_trees = spec["f"], spec["h"]
    if len(f_trees) != n:
        raise ValueError(f"need {n} state derivative expressions, got {len(f_trees)}")
    if len(h_trees) != p:
        raise ValueError(f"need {p} output expressions, got {len(h_trees)}")
    f_fns = [compile_expression(t, n, l) for t in f_trees]
    h_fns = [compile_expression(t, n, l) for t in h_trees]

    def f(x, u):
        return np.array([fn(x, u) for fn in f_fns])

    def h(x):
        zero = np.zeros(l)
        return np.array([fn(x, zero) for fn in h_fns])

    lipschitz = spec.get("lipschitz_u")
    if lipschitz is None:
        lipschitz = _sampled_lipschitz_u(f, n, l)
    given = {"dictionary_hint": "dictionary", "gain_box": "gain_box", "suggested_slack": "slack"}
    return ControlSystem(
        name=spec.get("name", "user_system"), n=n, l=l, p=p, f=f, h=h,
        lipschitz_u=float(lipschitz),
        **{field: spec[key] for field, key in given.items() if key in spec},
    )
