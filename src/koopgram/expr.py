"""Tiny expression-tree interpreter for user-defined dynamics.

Systems are declared in JSON as one expression tree per state derivative
and per output coordinate, over the state variables ``x1..xn`` and inputs
``u1..ul``.  Supported operators: add, sub, mul, div, neg, sin, cos, tanh,
pow (with a constant exponent; a power with no real value, such as a
negative base to a fractional exponent, raises ``ValueError``).  Trees
evaluate to plain floats, so the same declaration drives simulation, gain
sampling, and Lie-derivative targets without compiling user code.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .harness import ControlSystem

__all__ = ["compile_expression", "system_from_spec"]


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


def compile_expression(tree) -> Callable[[np.ndarray, np.ndarray], float]:
    """Compile a JSON expression tree into ``(x, u) -> float``."""
    if isinstance(tree, (int, float)):
        value = float(tree)
        return lambda x, u: value
    if not isinstance(tree, dict):
        raise ValueError(f"bad expression node: {tree!r}")
    if "const" in tree:
        value = float(tree["const"])
        return lambda x, u: value
    if "var" in tree:
        name = tree["var"]
        kind, idx = name[0], name[1:]
        if kind not in ("x", "u") or not idx.isdigit() or int(idx) < 1:
            raise ValueError(f"bad variable {name!r}: use x1..xn or u1..ul")
        k = int(idx) - 1
        if kind == "x":
            return lambda x, u: float(x[k])
        return lambda x, u: float(u[k])
    if "op" in tree:
        op = tree["op"]
        args = tree.get("args", [])
        if op in _UNARY:
            if len(args) != 1:
                raise ValueError(f"{op} takes one argument")
            inner = compile_expression(args[0])
            fn = _UNARY[op]
            return lambda x, u: float(fn(inner(x, u)))
        if op in _BINARY:
            if len(args) != 2:
                raise ValueError(f"{op} takes two arguments")
            if op == "pow" and not (
                isinstance(args[1], (int, float)) or "const" in args[1]
            ):
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

    Required keys: ``n``, ``l``, ``p``, ``f`` (n trees), ``h`` (p trees).
    Optional: ``name``, ``lipschitz_u`` (sampled when absent), ``gain_box``,
    ``slack``, ``dictionary``.  A variable outside ``x1..xn`` or ``u1..ul``
    raises ``ValueError``.
    """
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
        lipschitz = _sampled_lipschitz_u(f, n, l, seed=int(spec.get("seed", 0)))
    return ControlSystem(
        name=str(spec.get("name", "user_system")),
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
