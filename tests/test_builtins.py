"""The bundled declarations in ``builtins.json`` pinned to the systems they
stand for: the numpy formulas and the random draw written out below are the
reference, and every value must match them bit for bit."""

import json
from importlib.resources import files

import numpy as np
import pytest

from koopgram.expr import get_builtin


def _slow_manifold_f(x, u):
    return np.array(
        [
            -x[0] + 0.5 * np.tanh(u[0]),
            -2.0 * (x[1] - x[0] ** 2) + np.cos(x[0]) * np.tanh(u[0]),
        ]
    )


def _mild_cubic_f(x, u):
    # saturating cubic: x^3/(1+x^2) grows linearly, so the residual left
    # after the best linear fit keeps a small, globally finite gain
    return np.array(
        [
            -x[0] + 0.5 * x[1] + 0.3 * np.tanh(u[0]),
            -2.0 * x[1] - 0.1 * x[0] ** 3 / (1.0 + x[0] ** 2) + np.tanh(u[0]),
        ]
    )


IDENTITY = {"kind": "identity"}
# name -> (f, h, lipschitz_u, gain_box, slack, dictionary hint) of each
# nonlinear system
REFERENCE = {
    "slow_manifold": (_slow_manifold_f, lambda x: x[:2].copy(), np.sqrt(1.25), 3.0, 1.25,
                      {"kind": "monomials", "exponents": [[1, 0], [0, 1], [2, 0]]}),
    "slow_manifold_identity": (_slow_manifold_f, lambda x: x[:2].copy(), np.sqrt(1.25), 3.0, 1.25,
                               IDENTITY),
    "tanh_first_order": (lambda x, u: -x + np.tanh(u), lambda x: x.copy(), 1.0, 5.0, 1.05, IDENTITY),
    "mild_cubic": (_mild_cubic_f, lambda x: x[:1].copy(), np.sqrt(1.09), 4.0, 1.05, IDENTITY),
}


@pytest.mark.parametrize("name", list(REFERENCE))
def test_nonlinear_builtin_equals_its_formula(name):
    f, h, lipschitz, box, slack, hint = REFERENCE[name]
    sysd = get_builtin(name)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-box, box, size=(2000, sysd.n))
    us = rng.uniform(-box, box, size=(2000, sysd.l))
    for x, u in zip(xs, us):
        assert np.array_equal(sysd.f(x, u), f(x, u))
        assert np.array_equal(sysd.h(x), h(x))
    assert (sysd.lipschitz_u, sysd.gain_box, sysd.suggested_slack, sysd.dictionary_hint) == (
        float(lipschitz), box, slack, hint)


def test_lti6_matrices_are_the_seeded_draw():
    rng = np.random.default_rng(1234)
    m = rng.normal(size=(6, 6))
    shift = np.max(np.linalg.eigvals(m).real) + 0.75
    a = m - shift * np.eye(6)
    b = rng.normal(size=(6, 2))
    c = rng.normal(size=(2, 6))
    spec = json.loads(files("koopgram").joinpath("builtins.json").read_text())["lti6"]
    for got, want in ((spec["f"]["a"], a), (spec["f"]["b"], b), (spec["h"]["c"], c)):
        assert np.array_equal(np.array(got), want)
    sysd = get_builtin("lti6")
    x, u = np.linspace(-1.0, 1.0, 6), np.array([0.3, -0.8])
    assert np.array_equal(sysd.f(x, u), a @ x + b @ u)
    assert np.array_equal(sysd.h(x), c @ x)
    assert sysd.lipschitz_u == float(np.linalg.norm(b, 2))
    assert (sysd.gain_box, sysd.suggested_slack, sysd.dictionary_hint) == (5.0, 1.05, IDENTITY)
