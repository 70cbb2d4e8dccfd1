"""Control systems from JSON declarations: the one way a system is built.

A declaration gives one expression tree per state derivative over the state
variables ``x1..xn`` and inputs ``u1..ul``, and one per output coordinate
over the states alone.  Supported operators: add, sub, mul, div, neg, sin,
cos, tanh, pow (with a constant exponent; a power with no real value, such
as a negative base to a fractional exponent, raises ``ValueError``, and one
that overflows ``OverflowError``).  An exponent of 2, 3 or 4 is the product
``x * x * ...`` taken left to right (``linalg.int_power``), so a square is
the correctly rounded ``x * x``; any other exponent is ``math.pow``.  A node
is a number, ``{"const": c}``, ``{"var": name}`` or ``{"op": name, "args":
[...]}``; any other key set raises ``ValueError``.  Trees evaluate to plain
floats, so the same declaration drives simulation, gain sampling, and
Lie-derivative targets.  Each list of trees is checked and generated as
straight-line Python source, one assignment per node in post-order: the
source names only values, variable indices and operators from a fixed
table, never text of the declaration, and the constants are bound into the
functions' namespace by reference, bits intact.  A linear system may
give its matrices instead: ``f`` as ``{"a": A, "b": B}`` for ``A x + B u``
and ``h`` as ``{"c": C}`` for ``C x``.

A built system's ``f(x, u)`` and ``h(x)`` take one point, or a ``(k, n)``
stack of states with a ``(k, l)`` stack of inputs, and then return the
``(k, n)`` (or ``(k, p)``) stack of values, bit for bit the rows of ``k``
single calls.  A stack walks each tree once, on numpy columns, and a stack
one of whose points raises alone raises the same exception; matrices run
``linalg.row_products``.  So the gain sampling of the pipeline evaluates a
whole sample set in one call.  The system's ``f`` is a ``linalg.ListField``:
its list form ``f.point``, on one point given as a list ``x`` and a sequence
``u`` of floats, returns the list of the array call's values, bit for bit,
and raises what the array call raises.  For trees that list form is the
float walk itself, and the array call on one point is the same walk plus one
conversion each way; for matrices it is the array call converted, and the
system's ``linear`` holds ``(a, b)``.  The probe-signal simulation calls the
list form.

The bundled example systems are declarations too, in the package file
``builtins.json``; ``get_builtin`` and ``builtin_systems`` build them with
``system_from_spec``.

``check_fields`` is the one checker of user declarations: it serves one
table per declaration, the inline system spec and the dictionary here, the
config and its ``data`` in ``pipeline``.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
from importlib.resources import files
from typing import Callable

import numpy as np

from .harness import ControlSystem
from .linalg import ListField, int_power, row_norms, row_products

__all__ = ["builtin_systems", "compile_expression", "get_builtin", "system_from_spec"]

# key -> (accepted types, bound): a bound is None, "positive", or a number L
# meaning "at least L"; a None value is never bounded
_SPEC_FIELDS = {
    "n": (numbers.Integral, 1), "l": (numbers.Integral, 1), "p": (numbers.Integral, 1),
    "f": ((list, dict), None), "h": ((list, dict), None), "name": (str, None),
    "lipschitz_u": ((numbers.Real, type(None)), 0), "gain_box": (numbers.Real, "positive"),
    "slack": (numbers.Real, 1), "dictionary": (dict, None),
}
# the matrix form of f and of h: matrix key -> its (rows, columns) as
# dimension names
_MATRIX_SHAPES = {"f": {"a": "nn", "b": "nl"}, "h": {"c": "pn"}}
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


# constant exponents taken as products, in both walks
_PRODUCT_EXPONENTS = {2.0: 2, 3.0: 3, 4.0: 4}


def _pow(a: float, b: float) -> float:
    """``a ** b`` in the float walk: for ``b`` in 2, 3, 4 the product
    ``linalg.int_power(a, b)`` (a square is the correctly rounded ``a * a``),
    for any other ``b`` ``math.pow``, which equals ``**`` on real results.
    No real value raises ``ValueError`` and an overflow of a finite base
    ``OverflowError``, each naming the power."""
    k = _PRODUCT_EXPONENTS.get(b)
    try:
        value = math.pow(a, b) if k is None else int_power(a, k)
        if math.isinf(value) and math.isfinite(a):
            raise OverflowError
    except ValueError:
        raise ValueError(f"pow({a!r}, {b!r}) has no real value") from None
    except OverflowError:
        raise OverflowError(f"pow({a!r}, {b!r}) overflows") from None
    return value


def _pow_rows(a, b: float) -> np.ndarray:
    # _pow on a column: the products on the whole column (an overflow raises
    # under _on_stack's error state), else math.pow per element; np.power
    # differs from both in the last bit of some values
    a = np.atleast_1d(a)
    k = _PRODUCT_EXPONENTS.get(b)
    if k is not None:
        return int_power(a, k)
    return np.array([math.pow(v, b) for v in a.tolist()])


# operator -> its node's value from its arguments' values, in the float walk
# and in the stacked walk; the arity is the number of fields
_OPS = {
    "add": ("{} + {}",) * 2, "sub": ("{} - {}",) * 2, "mul": ("{} * {}",) * 2,
    "div": ("{} / {}",) * 2, "neg": ("-{}",) * 2, "pow": ("_pow({}, {})", "_pow_rows({}, {})"),
    **{op: (f"float({op}({{}}))", f"{op}({{}})") for op in ("sin", "cos", "tanh")},
}
# the names a generated walk reads besides its arguments, values and constants
_NAMESPACE = {"float": float, "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
              "_pow": _pow, "_pow_rows": _pow_rows}
_VARIABLE = re.compile(r"[xu][1-9][0-9]*")
# the key set of each kind of node: a constant, a variable, an operator
_NODE_KEYS = ({"const"}, {"var"}, {"op", "args"})


def _is_constant(tree) -> bool:
    return isinstance(tree, (int, float)) or (isinstance(tree, dict) and "const" in tree)


def _emit(tree, n: int, l: int, nodes: list, consts: list) -> str:
    """Check ``tree`` over ``x1..xn`` and ``u1..ul`` and return the name of
    its value: ``c<j>`` for the float ``consts[j]``, or ``v<i>`` for the
    variable or operator node whose (float walk, stacked walk) expressions
    are ``nodes[i]``.  Nodes are appended in post-order, arguments left to
    right, so the walks evaluate the tree as a recursive walk would."""
    if isinstance(tree, dict) and set(tree) not in _NODE_KEYS:
        raise ValueError(f"bad expression node {tree!r}: a node has exactly the keys "
                         "const, or var, or op and args")
    if _is_constant(tree):
        value = tree["const"] if isinstance(tree, dict) else tree
        check_type("expression constant", value, numbers.Real)
        consts.append(float(value))
        return f"c{len(consts) - 1}"
    if not isinstance(tree, dict):
        raise ValueError(f"bad expression node: {tree!r}")
    if "var" in tree:
        name = tree["var"]
        if not (isinstance(name, str) and _VARIABLE.fullmatch(name)):
            raise ValueError(f"bad variable {name!r}: use x1..xn or u1..ul")
        # checked here, where the dimensions are known, not as an IndexError
        # at evaluation; digits are counted first, as int() refuses over 4,300
        limit = n if name[0] == "x" else l
        if len(name) - 1 > len(str(limit)) or int(name[1:]) > limit:
            known = f"x1..x{n} or u1..u{l}" if l else f"x1..x{n} (an output reads no input)"
            raise ValueError(f"variable {name!r} is out of range: use {known}")
        read = f"{name[0]}[{int(name[1:]) - 1}]"
        nodes.append((read, read))
        return f"v{len(nodes) - 1}"
    op, args = tree["op"], tree["args"]
    check_type("expression operator", op, str)
    check_type(f"{op} arguments", args, list)
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}")
    walks = _OPS[op]
    arity = walks[0].count("{}")
    if len(args) != arity:
        raise ValueError(f"{op} takes {('one argument', 'two arguments')[arity - 1]}")
    if op == "pow" and not _is_constant(args[1]):
        raise ValueError("pow exponent must be a constant")
    names = [_emit(arg, n, l, nodes, consts) for arg in args]
    nodes.append(tuple(walk.format(*names) for walk in walks))
    return f"v{len(nodes) - 1}"


@functools.lru_cache(maxsize=256)
def _code(source: str):
    # compile() costs over twice the rest of a build; a source holds
    # only the shape of its trees and their variable indices (constants are
    # bound names), so rebuilds of a declaration share one code object
    return compile(source, "<koopgram declaration>", "exec")


def _trees(what: str, trees: list, count: int, n: int, l: int) -> tuple:
    """``count`` trees over ``x1..xn`` and ``u1..ul``, checked and generated
    as two straight-line functions of ``(x, u)``: the float walk, on lists of
    Python floats, returns the list of the trees' values; the stacked walk,
    on arrays whose rows are the columns of a stack (``_on_stack``), returns
    their columns.

    In the float walk every node is a Python float, so arithmetic raises
    ``ZeroDivisionError`` and ``pow`` raises ``OverflowError`` where numpy
    would warn; only the transcendental nodes leave float arithmetic, and
    they convert numpy's result back.  A ``pow`` with exponent 2, 3 or 4 is
    ``linalg.int_power``'s left-to-right product in both walks, any other
    ``math.pow``.  The stacked walk differs only at the transcendental and
    ``pow`` nodes, which keep numpy's values on the whole column, multiply
    whole columns for exponents 2-4 and run ``math.pow`` per element
    otherwise, so each row has the bits of the float walk; a constant-only
    subtree stays one value, which broadcasts.  Variables become indices
    and operators come from a fixed table, so no text of the declaration
    reaches the source, and constants are bound by reference, bits intact.
    """
    if len(trees) != count:
        raise ValueError(f"need {count} {what} expressions, got {len(trees)}")
    nodes, consts = [], []
    values = ", ".join([_emit(tree, n, l, nodes, consts) for tree in trees])
    source = "".join(
        f"def {walk}(x, u):\n" + "".join(f"    v{i} = {node[k]}\n" for i, node in enumerate(nodes))
        + f"    return [{values}]\n"
        for k, walk in enumerate(("point", "stack")))
    namespace = dict(_NAMESPACE, **{f"c{j}": value for j, value in enumerate(consts)})
    exec(_code(source), namespace)
    return namespace["point"], namespace["stack"]


def _on_stack(walks: tuple, xs: np.ndarray, us) -> np.ndarray:
    """The ``(k, m)`` values of the float walk ``walks[0]`` of ``m`` trees at
    the rows of ``xs`` and ``us`` (``None`` for an output), from one call of
    the stacked walk ``walks[1]``.

    Where numpy flags a division by zero, an overflow or an invalid value,
    or a ``pow`` raises, the stack is walked again row by row, so a stack
    raises what its first failing row raises alone, and a value that float
    arithmetic lets through (an overflow to inf) is returned as it is.  A
    stack with a non-finite entry goes row by row at once: there numpy can
    divide by zero without a flag (``inf / 0``), where a float raises.
    """
    point, stack = walks
    k = xs.shape[0]
    if us is not None and (us.ndim != 2 or us.shape[0] != k):
        raise ValueError(f"need a ({k}, l) stack of inputs for {k} states, got shape {us.shape}")
    if np.isfinite(xs).all() and (us is None or np.isfinite(us).all()):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                cols = np.ascontiguousarray(xs.T)
                ucols = None if us is None else np.ascontiguousarray(us.T)
                values = stack(cols, ucols)
                out = np.empty((k, len(values)))
                for i, value in enumerate(values):
                    out[:, i] = value
                return out
        except (ArithmeticError, ValueError):
            pass
    rows = us.tolist() if us is not None else [None] * k
    return np.array([point(x, u) for x, u in zip(xs.tolist(), rows)])


def compile_expression(tree, n: int, l: int) -> Callable[[np.ndarray, np.ndarray], float]:
    """Compile a JSON expression tree over ``x1..xn`` and ``u1..ul`` into
    ``(x, u) -> float``; ``x`` and ``u`` are any sequences of reals."""
    point, _ = _trees("expression", [tree], 1, n, l)
    return lambda x, u: point(np.asarray(x, float).tolist(), np.asarray(u, float).tolist())[0]


def _sampled_lipschitz_u(f, n: int, l: int, box: float) -> float:
    """Sampled bound on the sensitivity of f to its input argument: the
    larger of the secant sweeps over ``[-3, 3]`` and over the gain box
    ``[-box, box]``.  A sweep over a wide box puts few secant pairs close
    together, so it can read lower than the narrow one; taking both means
    that widening the box never lowers the bound."""
    return max(_secant_sweep(f, n, l, b) for b in {3.0, float(box)})


def _secant_sweep(f, n: int, l: int, box: float) -> float:
    """Largest secant ratio ``|f(x, u1) - f(x, u2)| / |u1 - u2|`` over 400
    draws of the state and both inputs from ``[-box, box]``.

    The draws come in the order ``x, u1, u2`` per draw; ``f`` is called once,
    on the stack of the rows ``(x, u1), (x, u2)`` of every draw in turn."""
    draws = np.random.default_rng(0).uniform(-box, box, size=(400, n + 2 * l))
    xs, u1s, u2s = draws[:, :n], draws[:, n:n + l], draws[:, n + l:]
    du = row_norms(u1s - u2s)
    used = du != 0.0
    xs, du = xs[used], du[used]
    values = f(np.repeat(xs, 2, axis=0), np.stack([u1s[used], u2s[used]], axis=1).reshape(-1, l))
    ratios = row_norms(values[0::2] - values[1::2]) / du
    return float(np.max(ratios, initial=0.0))


def _matrices(key: str, spec: dict, dims: dict) -> list:
    """The matrices of the matrix form of ``spec[key]`` as float arrays, each
    checked for its shape in the dimensions ``dims``."""
    where = f"system {key}"
    shapes = _MATRIX_SHAPES[key]
    check_fields(where, spec[key], dict.fromkeys(shapes, (list, None)), required=tuple(shapes))
    out = []
    for name, (rows, cols) in shapes.items():
        matrix = spec[key][name]
        for row in matrix:
            check_type(f"{where} {name} row", row, list)
            for entry in row:
                check_type(f"{where} {name} entry", entry, numbers.Real)
        if [len(row) for row in matrix] != [dims[cols]] * dims[rows]:
            raise ValueError(f"{where} {name} must be {dims[rows]}x{dims[cols]} ({rows} x {cols}), "
                             f"got rows of lengths {[len(row) for row in matrix]}")
        out.append(np.array(matrix, float))
    return out


def system_from_spec(spec: dict) -> ControlSystem:
    """Build a control system from a JSON declaration.

    Required keys: ``n``, ``l``, ``p`` (positive integers), ``f`` (a list of
    n trees over ``x1..xn`` and ``u1..ul``, or the matrices
    ``{"a": n x n, "b": n x l}`` of ``a x + b u``), ``h`` (a list of p trees
    over ``x1..xn``, or ``{"c": p x n}`` for ``c x``).  Optional: ``name``
    (a string), ``lipschitz_u`` (non-negative; when absent or null, ``||b||_2``
    for matrices and sampled for trees), ``gain_box`` (positive), ``slack``
    (at least 1), ``dictionary`` (as in a pipeline config); ``ControlSystem``
    supplies the defaults.  The whole declaration is checked before anything
    is built: an unknown or missing key, a value of the wrong type or out of
    range, a malformed tree or matrix, a variable outside ``x1..xn`` or
    ``u1..ul``, or an input variable in an output raises ``ValueError``.
    The system's ``f`` and ``h`` also take stacks of points, and ``f.point``
    one point as lists (see the module docstring); called on one array
    point, the matrix form needs numpy arrays.
    """
    check_fields("system", spec, _SPEC_FIELDS, required=("n", "l", "p", "f", "h"))
    if "dictionary" in spec:
        check_dictionary("system dictionary", spec["dictionary"])
    n, l, p = int(spec["n"]), int(spec["l"]), int(spec["p"])
    dims = {"n": n, "l": l, "p": p}
    lipschitz = spec.get("lipschitz_u")
    # bound here, not looked up on np per call: f and h are the hot calls
    asarray, array, dot = np.asarray, np.array, np.dot
    if isinstance(spec["f"], dict):
        a, b = _matrices("f", spec, dims)

        def f_point(x, u):
            return (dot(a, x) + dot(b, u)).tolist()

        def f_call(x, u):
            # np.dot on one point has the bits of the stack's row products
            # and costs less than ``@``
            if x.ndim == 1:
                return dot(a, x) + dot(b, u)
            return row_products(a, x) + row_products(b, u)

        f, linear = ListField(f_point, f_call), (a, b)
        if lipschitz is None:
            lipschitz = np.linalg.norm(b, 2)
    else:
        linear = None
        f_walks = _trees("state derivative", spec["f"], n, n, l)
        f_point = f_walks[0]  # the float walk itself: the simulation's hot call

        def f_call(x, u):
            x, u = asarray(x, float), asarray(u, float)
            if x.ndim == 2:
                return _on_stack(f_walks, x, u)
            return array(f_point(x.tolist(), u.tolist()))

        f = ListField(f_point, f_call)

    if isinstance(spec["h"], dict):
        (c,) = _matrices("h", spec, dims)

        def h(x):
            return dot(c, x) if x.ndim == 1 else row_products(c, x)
    else:
        h_walks = _trees("output", spec["h"], p, n, 0)
        h_point = h_walks[0]

        def h(x):
            x = asarray(x, float)
            if x.ndim == 2:
                return _on_stack(h_walks, x, None)
            return array(h_point(x.tolist(), None))

    if lipschitz is None:
        box = float(spec.get("gain_box", ControlSystem.gain_box))
        lipschitz = _sampled_lipschitz_u(f, n, l, box)
    given = {"dictionary_hint": "dictionary", "gain_box": "gain_box", "suggested_slack": "slack"}
    return ControlSystem(
        name=spec.get("name", "user_system"), n=n, l=l, p=p, f=f, h=h,
        lipschitz_u=float(lipschitz), linear=linear,
        **{field: spec[key] for field, key in given.items() if key in spec},
    )


def control_reads(spec: dict) -> tuple[bool, list[bool]]:
    """Whether every ``f_i`` of the declaration ``spec`` is a sum, through
    ``add``, ``sub`` and ``neg``, of terms that each read only states or
    only inputs (a constant reads neither; a matrix ``f`` always is), and
    per ``f_i`` whether it reads an input (a nonzero row of a matrix ``b``)."""
    f = spec["f"]
    if isinstance(f, dict):
        return True, [any(row) for row in f["b"]]
    return all(map(_separable, f)), ["u" in _reads(tree) for tree in f]


def _separable(tree) -> bool:
    if isinstance(tree, dict) and tree.get("op") in ("add", "sub", "neg"):
        return all(map(_separable, tree["args"]))
    return _reads(tree) != {"x", "u"}


def _reads(tree) -> set:
    # the kinds of variable, "x" and "u", that a checked tree reads
    if not isinstance(tree, dict) or "const" in tree:
        return set()
    if "var" in tree:
        return {tree["var"][0]}
    return set().union(*map(_reads, tree["args"]))


def _bundle() -> dict:
    """The bundled example declarations, name -> declaration."""
    return json.loads(files(__package__).joinpath("builtins.json").read_text())


def builtin_systems() -> list[ControlSystem]:
    """The bundled example systems, from linear to non-affine control."""
    return [system_from_spec({"name": name, **spec}) for name, spec in _bundle().items()]


def builtin_declaration(name: str) -> dict:
    """The declaration of the bundled example system ``name``."""
    bundle = _bundle()
    if name not in bundle:
        raise KeyError(f"unknown builtin system {name!r}; known: {', '.join(bundle)}")
    return {"name": name, **bundle[name]}


def get_builtin(name: str) -> ControlSystem:
    """The bundled example system ``name``, built alone."""
    return system_from_spec(builtin_declaration(name))
