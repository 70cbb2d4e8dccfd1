"""Tiny expression-tree interpreter for user-defined dynamics.

Systems are declared in JSON as one expression tree per state derivative
and per output coordinate, over the state variables ``x1..xn`` and inputs
``u1..ul``.  Supported operators: add, sub, mul, div, neg, sin, cos, tanh,
pow (with a constant exponent; a power with no real value, such as a
negative base to a fractional exponent, raises ``ValueError``).  Trees
evaluate to plain floats, so the same declaration drives simulation, gain
sampling, and Lie-derivative targets without compiling user code.

``check_type`` is the one type check of user input: ``system_from_spec``
checks a declaration with it before building anything, and
``pipeline.PipelineConfig`` checks a config with it.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .harness import ControlSystem

__all__ = ["compile_expression", "system_from_spec"]

# the accepted type of each system declaration key, and the required keys
_SPEC_TYPES = {
    "n": numbers.Integral, "l": numbers.Integral, "p": numbers.Integral, "f": list, "h": list,
    "name": str, "lipschitz_u": (numbers.Real, type(None)), "gain_box": numbers.Real,
    "slack": numbers.Real, "dictionary": dict, "seed": numbers.Integral,
}
_SPEC_REQUIRED = ("n", "l", "p", "f", "h")
_DICTIONARY_KEYS = ("kind", "degree", "exponents")


def check_type(name: str, value, types) -> None:
    """Reject a value not of ``types``; a bool is not a number, a real must be finite."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    if isinstance(value, numbers.Real) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_dictionary(name: str, spec: dict) -> None:
    """Reject a dictionary declaration with an unknown key, a degree that is not
    a positive integer, or exponents that are not lists of integers."""
    unknown = sorted(set(spec) - set(_DICTIONARY_KEYS))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; known: {list(_DICTIONARY_KEYS)}")
    degree = spec.get("degree")
    if degree is not None:
        check_type(f"{name} degree", degree, numbers.Integral)
        if degree < 1:
            raise ValueError(f"{name} degree must be positive, got {degree!r}")
    exponents = spec.get("exponents", [])
    check_type(f"{name} exponents", exponents, list)
    for row in exponents:
        check_type(f"{name} exponent", row, list)
        for power in row:
            check_type(f"{name} exponent", power, numbers.Integral)


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


def compile_expression(tree) -> Callable[[np.ndarray, np.ndarray], float]:
    """Compile a JSON expression tree into ``(x, u) -> float``."""
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
            inner = compile_expression(args[0])
            fn = _UNARY[op]
            return lambda x, u: float(fn(inner(x, u)))
        if op in _BINARY:
            if len(args) != 2:
                raise ValueError(f"{op} takes two arguments")
            if op == "pow" and not _is_constant(args[1]):
                raise ValueError("pow exponent must be a constant")
            left = compile_expression(args[0])
            right = compile_expression(args[1])
            fn = _BINARY[op]
            return lambda x, u: float(fn(left(x, u), right(x, u)))
        raise ValueError(f"unknown operator {op!r}")
    raise ValueError(f"bad expression node: {tree!r}")


def _variables(tree):
    """The variable names a tree reads."""
    if isinstance(tree, dict):
        if "var" in tree:
            yield tree["var"]
        for arg in tree.get("args", []):
            yield from _variables(arg)


def _sampled_lipschitz_u(f, n: int, l: int, seed: int = 0, samples: int = 400) -> float:
    """Sampled bound on the sensitivity of f to its input argument."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
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
    ``lipschitz_u`` (non-negative; sampled when absent or null), ``seed`` (an
    integer, the seed of that sampling, default 0), ``gain_box`` (positive),
    ``slack`` (at least 1), ``dictionary`` (as in a pipeline config).  The
    whole declaration is checked before anything is built: an unknown or
    missing key, a value of the wrong type or out of range, a malformed
    tree, or a variable outside ``x1..xn`` or ``u1..ul`` raises
    ``ValueError``.
    """
    check_type("system spec", spec, dict)
    unknown = sorted(set(spec) - set(_SPEC_TYPES))
    missing = [key for key in _SPEC_REQUIRED if key not in spec]
    if unknown or missing:
        raise ValueError(
            f"system spec has unknown keys {unknown} or lacks keys {missing}; "
            f"known: {list(_SPEC_TYPES)}"
        )
    for key, value in spec.items():
        check_type(f"system {key}", value, _SPEC_TYPES[key])
    lower = {"n": 1, "l": 1, "p": 1, "lipschitz_u": 0.0, "slack": 1.0}
    for key, least in lower.items():
        if spec.get(key) is not None and spec[key] < least:
            raise ValueError(f"system {key} must be at least {least}, got {spec[key]!r}")
    if spec.get("gain_box", 1.0) <= 0:
        raise ValueError(f"system gain_box must be positive, got {spec['gain_box']!r}")
    check_dictionary("system dictionary", spec.get("dictionary", {}))
    n, l, p = int(spec["n"]), int(spec["l"]), int(spec["p"])
    f_trees = spec["f"]
    h_trees = spec["h"]
    if len(f_trees) != n:
        raise ValueError(f"need {n} state derivative expressions, got {len(f_trees)}")
    if len(h_trees) != p:
        raise ValueError(f"need {p} output expressions, got {len(h_trees)}")
    f_fns = [compile_expression(t) for t in f_trees]
    h_fns = [compile_expression(t) for t in h_trees]
    # compiling checked each variable's form; its index is checked here,
    # where the dimensions are known, not as an IndexError at evaluation
    for tree in [*f_trees, *h_trees]:
        for var in _variables(tree):
            if int(var[1:]) > (n if var[0] == "x" else l):
                raise ValueError(f"variable {var!r} is out of range: use x1..x{n} or u1..u{l}")

    def f(x, u):
        return np.array([fn(x, u) for fn in f_fns])

    def h(x):
        zero = np.zeros(l)
        return np.array([fn(x, zero) for fn in h_fns])

    lipschitz = spec.get("lipschitz_u")
    if lipschitz is None:
        lipschitz = _sampled_lipschitz_u(f, n, l, seed=spec.get("seed", 0))
    return ControlSystem(
        name=spec.get("name", "user_system"),
        n=n,
        l=l,
        p=p,
        f=f,
        h=h,
        lipschitz_u=float(lipschitz),
        dictionary_hint=spec.get("dictionary", {"kind": "identity"}),
        gain_box=float(spec.get("gain_box", 5.0)),
        suggested_slack=float(spec.get("slack", 1.05)),
    )
