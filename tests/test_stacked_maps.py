"""The sampled maps take a whole stack of points, bit for bit single calls.

``gsvd.estimate_gains`` calls its map once on the stack of samples, so the
maps koopgram builds for it (``lifted_control_term``'s map and
``bn.error_map``) and ``fit_koopman`` evaluate stacks, and so does the
system's ``f``.  Every check here is
``np.array_equal`` against one call per point (or against the per-sample
oracles in ``oracles.py``) on every builtin and on one inline expression
spec.  The call-count guard pins how often the a-priori stages call the
system's ``f`` and how many rows those calls cover, so a duplicated
evaluation, a per-row call, or a lost sample shows.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from koopgram import pipeline
from koopgram.balance import EXACT_RESIDUAL_TOL, balance, balanced_nonlinear
from koopgram.expr import builtin_systems, get_builtin, system_from_spec
from koopgram.gsvd import _ZERO_INPUT_CHECKS, decompose, estimate_gains
from koopgram.koopman import build_dictionary, collect_trajectories, fit_koopman, lifted_control_term
from koopgram.linalg import LtiSystem
from koopgram.pipeline import PipelineConfig, stage_balance, stage_certify, stage_decompose, stage_fit_koopman
from oracles import gains_by_sample_loop, koopman_fit_by_state_loop

EXPR_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expr_lift_system.json").read_text()
)
SYSTEMS = [s.name for s in builtin_systems()] + ["expr_lift"]
BUDGET = 200


def _system(name):
    return system_from_spec(EXPR_SPEC) if name == "expr_lift" else get_builtin(name)


def _dictionary(system):
    hint = system.dictionary_hint
    if hint["kind"] == "identity":
        return build_dictionary("identity", system.n)
    return build_dictionary("monomials", system.n, exponents=hint["exponents"])


_MODELS = {}


def _models(name):
    """(system, dictionary, data, model, lifted control term, bn), built once."""
    if name not in _MODELS:
        system = _system(name)
        d = _dictionary(system)
        data = collect_trajectories(system.drift, system.n, count=8, horizon=3.0, box=1.5, seed=0)
        model = fit_koopman(system.drift, system.h, d, data)
        fu = lifted_control_term(system.f, d, l=system.l)
        gains = estimate_gains(fu, (system.n, system.l), sample_budget=BUDGET, seed=0, box=system.gain_box)
        factor = decompose(fu, (system.n, system.l), gains, slack=system.suggested_slack)
        bal = balance(LtiSystem(model.a, factor.u @ factor.sigma, model.c), state_dim=system.n)
        bn = balanced_nonlinear(system.f, system.l, model, bal)
        _MODELS[name] = (system, d, data, model, fu, bn)
    return _MODELS[name]


def _single_rows(fn, *stacks):
    return np.array([fn(*row) for row in zip(*stacks)])


def _error_at(system, model, bal, z):
    """The representation error at one balanced state, from its formula
    ``(T (D_phi(x) f(x, 0) - A phi(x)))[:r]`` at ``x = R_r z``."""
    r = len(z)
    x = bal.r[:, :r] @ z
    d = model.dictionary
    field = d.jacobian(x) @ system.f(x, np.zeros(system.l)) - model.a @ d.evaluate(x)
    return (bal.t @ field)[:r]


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("layout", ["fitted", "c_contiguous"])
def test_error_map_stack_equals_single_calls_at_every_order(name, layout):
    system, _, _, model, _, bn = _models(name)
    if layout == "c_contiguous":
        # the pipeline reads A from koopman.json, so it arrives C-ordered,
        # where the fitted A is a transposed solve
        model = dataclasses.replace(model, a=np.ascontiguousarray(model.a))
        bn = balanced_nonlinear(system.f, system.l, model, bn.bal)
    rng = np.random.default_rng(1)
    for r in range(1, bn.bal.q + 1):
        zs = rng.uniform(-system.gain_box, system.gain_box, size=(37, r))
        stacked = bn.error_map(zs)
        assert stacked.shape == (37, r)
        assert np.array_equal(stacked, _single_rows(bn.error_map, zs))
        assert np.array_equal(stacked, _single_rows(lambda z: _error_at(system, model, bn.bal, z), zs))


@pytest.mark.parametrize("name", SYSTEMS)
def test_lifted_control_term_stack_equals_single_calls(name):
    system, d, _, _, fu, _ = _models(name)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-system.gain_box, system.gain_box, size=(41, system.n))
    us = rng.uniform(-system.gain_box, system.gain_box, size=(41, system.l))
    stacked = fu(xs, us)
    assert stacked.shape == (41, d.q)
    assert np.array_equal(stacked, _single_rows(fu, xs, us))
    # and the formula D_phi(x) (f(x, u) - f(x, 0)) at one point
    zero_u = np.zeros(system.l)
    formula = lambda x, u: d.jacobian(x) @ (system.f(x, u) - system.f(x, zero_u))
    assert np.array_equal(stacked, _single_rows(formula, xs, us))


@pytest.mark.parametrize("name", SYSTEMS)
def test_fit_koopman_equals_per_state_loop(name):
    system, d, data, model, _, _ = _models(name)
    ref = koopman_fit_by_state_loop(system.drift, system.h, d, data.states, seed=0)
    assert np.array_equal(model.a, ref["a"])
    assert np.array_equal(model.c, ref["c"])
    for key in ("residual_gain", "output_residual", "output_scale"):
        assert getattr(model, key) == ref[key], key


@pytest.mark.parametrize("name", SYSTEMS)
def test_estimate_gains_equals_per_sample_loop(name):
    system, _, _, _, fu, bn = _models(name)
    cases = [(fu, (system.n, system.l))] + [(bn.error_map, r) for r in range(1, bn.bal.q + 1)]
    for f, dims in cases:
        got = estimate_gains(f, dims, sample_budget=BUDGET, seed=[3, 4], box=system.gain_box)
        bounds, count = gains_by_sample_loop(f, dims, BUDGET, [3, 4], system.gain_box)
        assert np.array_equal(got.coordinate_bounds, bounds), dims
        assert got.sample_count == count


GUARD_ORDERS = {
    "lti6": [1, 3],
    "slow_manifold": [1, 2],
    "slow_manifold_identity": [1],
    "tanh_first_order": [1],
    "mild_cubic": [1, 2],
}


@pytest.mark.parametrize("name", list(GUARD_ORDERS))
def test_a_priori_stages_call_f_a_fixed_number_of_times(name, tmp_path, monkeypatch):
    base = get_builtin(name)
    calls, rows = [0], [0]

    def f(x, u):
        calls[0] += 1
        rows[0] += len(x) if np.ndim(x) == 2 else 1
        return base.f(x, u)

    counted = dataclasses.replace(base, f=f)
    monkeypatch.setattr(pipeline, "get_builtin", lambda _: counted)
    orders = GUARD_ORDERS[name]
    cfg = PipelineConfig(system=name, reduction_orders=orders, output_dir=str(tmp_path),
                         sample_budget=BUDGET, data={"trajectories": 8})
    stage_fit_koopman(cfg)
    calls[0] = rows[0] = 0
    gains = stage_decompose(cfg)["gains"]
    samples = gains["sample_count"]
    # f(x, u) and f(x, 0) on the stack of gain samples, and on the stack of
    # zero-input checks twice over (at u = 1 and u = 0): the same rows as one
    # call per point made
    assert calls[0] == 2 + 4
    assert rows[0] == 2 * samples + 4 * _ZERO_INPUT_CHECKS
    residual_gain = json.loads((tmp_path / "koopman.json").read_text())["residual_gain"]
    stage_balance(cfg)
    calls[0] = rows[0] = 0
    stage_certify(cfg)
    # f(x, 0) on the stack of factor_error samples, for the full error and
    # each order, when there is an error block, and nothing else: control
    # affinity is read from the declaration
    error_legs = 1 + len(orders) if residual_gain > EXACT_RESIDUAL_TOL else 0
    assert calls[0] == error_legs
    assert rows[0] == error_legs * samples
