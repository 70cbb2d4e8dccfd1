import dataclasses
import itertools
import json
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from koopgram import harness, pipeline
from koopgram.balance import balance, balanced_nonlinear, truncate
from koopgram.certify import FeedbackDecomposition, build_certificate
from koopgram.expr import builtin_systems, get_builtin
from koopgram.gsvd import decompose, estimate_gains
from koopgram.harness import (
    FREQ_BAND,
    L2_QUADRATURE_POINTS,
    ControlSystem,
    Signal,
    _fan_out,
    _integrate,
    _N_GRID,
    _noise_burst,
    _simulate_signal,
    estimate_gap,
    input_ensemble,
    judge_bound,
    signal_l2_norm,
    simulate_ensemble,
)
from koopgram.koopman import build_dictionary, collect_trajectories, fit_koopman, lifted_control_term
from koopgram.linalg import LtiSystem, list_field


def _gap(system, bn, red, ensemble, tol):
    trajectories = simulate_ensemble(system, bn, [red.order], ensemble, tol)
    return estimate_gap(trajectories, red, ensemble)


def _reduced_pair(name, r, seed=0):
    sysd = get_builtin(name)
    hint = sysd.dictionary_hint
    d = (
        build_dictionary("identity", sysd.n)
        if hint["kind"] == "identity"
        else build_dictionary("monomials", sysd.n, exponents=hint["exponents"])
    )
    data = collect_trajectories(sysd.drift, sysd.n, count=20, horizon=3.0, box=1.5, seed=seed)
    model = fit_koopman(sysd.drift, sysd.h, d, data)
    fu = lifted_control_term(sysd.f, d, l=sysd.l)
    gains = estimate_gains(fu, (sysd.n, sysd.l), sample_budget=500, seed=seed, box=sysd.gain_box)
    factor = decompose(fu, (sysd.n, sysd.l), gains, slack=sysd.suggested_slack)
    bal = balance(LtiSystem(model.a, factor.u @ factor.sigma, model.c), state_dim=sysd.n)
    red = truncate(bal, r)
    bn = balanced_nonlinear(sysd.f, sysd.l, model, bal)
    return sysd, bn, red


def _exploding_full(base):
    """``base`` whose full-system solve fails under every nonzero input."""

    def exploding(x, u):
        if abs(float(x[0])) > 1e-3:
            raise ValueError("synthetic integration failure")
        return base.f(x, u)

    return dataclasses.replace(base, f=exploding)


def _broken_order_2(bn):
    """Copies of ``bn`` whose order-2 solve fails, each with its error text."""
    f_reduced = bn.f_reduced

    def raising(zs, u):
        if any(len(z) == 2 and np.linalg.norm(z) > 1e-3 for z in zs):
            raise ValueError("synthetic order-2 failure")
        return f_reduced(zs, u)

    def blowing_up(zs, u):
        # z' = 1 + z^2 per component: z = tan(t) has a pole at t = pi / 2
        return [[1.0 + v * v for v in z] if len(z) == 2 else f_reduced([z], u)[0] for z in zs]

    return [
        (dataclasses.replace(bn, f_reduced=raising), "synthetic order-2"),
        (dataclasses.replace(bn, f_reduced=blowing_up), "integration failed"),
    ]


class TestBuiltinSystems:
    def test_all_vanish_at_origin(self):
        # construction would raise otherwise; also check the drift directly
        for sysd in builtin_systems():
            assert np.allclose(sysd.drift(np.zeros(sysd.n)), 0.0, atol=1e-12)

    def test_expected_names(self):
        names = {s.name for s in builtin_systems()}
        assert {"lti6", "slow_manifold", "slow_manifold_identity", "tanh_first_order"} <= names

    def test_get_builtin_builds_only_the_named_system(self, monkeypatch):
        built = []
        check = ControlSystem.__post_init__

        def counted(self):
            built.append(self.name)
            check(self)

        monkeypatch.setattr(ControlSystem, "__post_init__", counted)
        for name in ("lti6", "mild_cubic"):
            built.clear()
            assert get_builtin(name).name == name
            assert built == [name]
        with pytest.raises(KeyError, match="unknown builtin system 'nope'"):
            get_builtin("nope")
        assert built == [name]
        built.clear()
        assert [s.name for s in builtin_systems()] == built == [
            "lti6", "slow_manifold", "slow_manifold_identity", "tanh_first_order", "mild_cubic",
        ]

    def test_lti6_drift_is_hurwitz(self):
        sysd = get_builtin("lti6")
        basis = np.eye(6)
        a = np.stack([sysd.drift(basis[i]) for i in range(6)], axis=1)
        assert np.max(np.linalg.eigvals(a).real) < 0

    def test_tanh_first_order_metadata(self):
        sysd = get_builtin("tanh_first_order")
        assert sysd.lipschitz_u == 1.0
        assert np.allclose(sysd.f(np.zeros(1), np.zeros(1)), 0.0)

    def test_slow_manifold_quadratic_observable_decay(self):
        # the x1^2 observable shrinks at exactly twice the x1 rate along the drift
        sysd = get_builtin("slow_manifold")
        d = build_dictionary("monomials", 2, exponents=sysd.dictionary_hint["exponents"])
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(20, 2)):
            lie = d.jacobian(x) @ sysd.drift(x)
            assert np.isclose(lie[2], -2.0 * x[0] ** 2, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown builtin"):
            get_builtin("nope")

    def test_origin_violation_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            ControlSystem(
                name="bad", n=1, l=1, p=1,
                f=lambda x, u: x + 1.0,
                h=lambda x: x,
                lipschitz_u=1.0,
            )


class TestInputEnsemble:
    def test_decayed_sinusoid_energy_matches_closed_form(self):
        fn = lambda ts: (np.exp(-ts) * np.sin(ts))[:, None]
        norm = signal_l2_norm(fn, horizon=20.0)
        assert abs(norm**2 - 0.125) <= 1e-8

    def test_count_and_channels(self):
        signals = input_ensemble(2, horizon=15.0, count=7, seed=1)
        assert len(signals) == 7
        val = signals[0](0.3)
        assert val.shape == (2,)

    def test_deterministic_for_fixed_seed(self):
        a = input_ensemble(1, 10.0, count=5, seed=9)
        b = input_ensemble(1, 10.0, count=5, seed=9)
        ts = np.linspace(0, 10, 50)
        for sa, sb in zip(a, b):
            assert sa.l2_norm == sb.l2_norm
            assert np.array_equal(sa.fn(ts), sb.fn(ts))

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            input_ensemble(1, 0.0, count=3)

    def test_empty_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            input_ensemble(1, 5.0, count=0)

    def test_zero_energy_signal_rejected(self):
        with pytest.raises(ValueError, match="energy"):
            Signal(name="null", fn=lambda ts: np.zeros((ts.size, 1)), horizon=1.0, l2_norm=0.0)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        # rejected up front, before any numpy warning or energy check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                Signal(name="s", fn=lambda ts: np.ones((ts.size, 1)), horizon=horizon, l2_norm=1.0)
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                input_ensemble(1, horizon, count=3)

    def test_peak_freq_is_the_highest_angular_frequency(self):
        lo, hi = FREQ_BAND
        ens = input_ensemble(2, 15.0, count=10, seed=2)  # 6 tones, 2 bursts, 2 chirps
        grid = np.geomspace(lo, hi, 6)
        for tone, centre in zip(ens[:6], grid):
            assert 0.95 * centre <= tone.peak_freq <= 1.05 * centre
        assert all(lo <= s.peak_freq < hi for s in ens[6:8])
        assert [s.peak_freq for s in ens[8:]] == [hi, hi]
        assert Signal(name="s", fn=lambda ts: np.ones((ts.size, 1)), horizon=1.0, l2_norm=1.0).peak_freq == 0.0


def _noise_burst_loop(coeffs, freqs, phases, center, width):
    """Reference burst: one tone at a time, added into a zeroed total."""

    def fn(ts):
        ts = ts[:, None]
        window = np.exp(-(((ts - center) / width) ** 2))
        total = np.zeros((ts.shape[0], coeffs.shape[1]))
        for c, f, p in zip(coeffs, freqs, phases):
            total += c[None, :] * np.sin(f[None, :] * ts + p[None, :])
        return window * total

    return fn


class TestSignalBits:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_vectorised_burst_equals_tone_loop(self, l):
        horizon = 15.0
        grid = np.linspace(0.0, horizon, L2_QUADRATURE_POINTS)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            params = dict(
                coeffs=rng.uniform(-1.0, 1.0, size=(5, l)),
                freqs=rng.uniform(*FREQ_BAND, size=(5, l)),
                phases=rng.uniform(0, 2 * np.pi, size=(5, l)),
                center=rng.uniform(0.2, 0.5) * horizon,
                width=rng.uniform(0.05, 0.15) * horizon,
            )
            fn, _, peak = _noise_burst(**params)
            reference = _noise_burst_loop(**params)
            assert peak == params["freqs"].max()
            for t in rng.uniform(0.0, horizon, size=40):
                assert np.array_equal(fn(np.array([t])), reference(np.array([t])))
            assert np.array_equal(fn(grid), reference(grid))

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_chunked_l2_norm_equals_one_shot_quadrature(self, l):
        for seed in range(3):
            # tones, bursts and chirps
            for sig in input_ensemble(l, 12.0, count=10, seed=seed):
                ts = np.linspace(0.0, sig.horizon, L2_QUADRATURE_POINTS)
                vals = sig.fn(ts)
                one_shot = float(np.sqrt(scipy.integrate.simpson(np.sum(vals * vals, axis=1), x=ts)))
                assert sig.l2_norm == signal_l2_norm(sig.fn, sig.horizon) == one_shot


class TestSignalPoint:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_point_equals_one_row_of_fn(self, l):
        # tones, bursts and chirps, at t = 0, the horizon, past it (the
        # solver can step beyond the last output time) and between
        for seed in range(4):
            for sig in input_ensemble(l, 12.0, count=10, seed=seed):
                times = [0.0, sig.horizon, 1.01 * sig.horizon, 1.5 * sig.horizon]
                times += np.random.default_rng(seed).uniform(0.0, sig.horizon, size=200).tolist()
                for t in times:
                    value = sig.point(t)
                    assert type(value) is tuple and all(type(v) is float for v in value)
                    row = sig.fn(np.array([t]))[0]
                    assert np.array_equal(value, row)
                    assert np.array_equal(np.signbit(value), np.signbit(row))

    def test_replaced_fn_with_other_values_raises(self):
        sig = input_ensemble(2, 10.0, count=5, seed=0)[2]
        with pytest.raises(ValueError, match="point does not give the values of fn"):
            dataclasses.replace(sig, fn=lambda ts: 2.0 * sig.fn(ts))
        # dropping the point form, or keeping fn's values, is accepted
        assert dataclasses.replace(sig, fn=lambda ts: 2.0 * sig.fn(ts), point=None).point is None
        assert dataclasses.replace(sig, fn=lambda ts: sig.fn(ts)).point is sig.point

    def test_signal_without_point_simulates(self):
        sysd, bn, _ = _reduced_pair("slow_manifold", r=1)
        sig = input_ensemble(sysd.l, 8.0, count=1, seed=4)[0]
        bare = Signal(name="bare", fn=sig.fn, horizon=sig.horizon, l2_norm=sig.l2_norm)
        assert bare.point is None
        # the array path gives the point form's bits, so the same trajectories
        with_point = _simulate_signal(sysd, bn, [1], sig, 1e-8)
        without = _simulate_signal(sysd, bn, [1], bare, 1e-8)
        assert np.array_equal(without.full, with_point.full)
        assert np.array_equal(without.reduced[1], with_point.reduced[1])


def _field_times_and_inputs(monkeypatch, system, bn, orders, sig, tol):
    """The times of every field call of ``sig``'s ``_simulate_signal``, in
    order, and the number of calls to the signal's one-point input form."""
    times, inputs = [], []
    original = harness.integrate_ode

    def integrate_ode(field, *a, **k):
        def recorded(t, s):
            times.append(t)
            return field(t, s)

        return original(recorded, *a, **k)

    def point(t):
        inputs.append(1)
        return sig.point(t)

    counted = dataclasses.replace(sig, point=point)
    inputs.clear()  # construction checks the point form at a few times
    monkeypatch.setattr(harness, "integrate_ode", integrate_ode)
    _simulate_signal(system, bn, orders, counted, tol)
    monkeypatch.setattr(harness, "integrate_ode", original)
    return times, len(inputs)


class TestInputCache:
    @pytest.mark.parametrize("name, orders", [("lti6", [2, 4]), ("slow_manifold", [1, 2])])
    def test_one_input_evaluation_per_step_time(self, name, orders, monkeypatch):
        sysd, bn, _ = _reduced_pair(name, r=orders[0])
        for sig in input_ensemble(sysd.l, 10.0, count=5, seed=3):
            times, inputs = _field_times_and_inputs(monkeypatch, sysd, bn, orders, sig, 1e-7)
            # LSODA calls the field twice at most step times; the input is
            # evaluated again only when the time changes between two calls
            changes = 1 + sum(a != b for a, b in zip(times, times[1:]))
            assert inputs == changes
            assert len(set(times)) <= inputs < 0.6 * len(times)

    def test_field_that_writes_into_u_raises(self):
        base, bn, _ = _reduced_pair("slow_manifold", r=1)

        def writing(x, u):
            u[0] = 0.0
            return base.f(x, u)

        sig = input_ensemble(1, 8.0, count=1, seed=6)[0]
        grid = np.linspace(0.0, sig.horizon, _N_GRID)
        # an array plant gets the input read-only from the list adapter, and
        # a list-form field gets it as a tuple
        with pytest.raises(ValueError, match="read-only"):
            _integrate([(list_field(writing), base.n)], sig, grid, 1e-8)
        with pytest.raises(TypeError, match="does not support item assignment"):
            _integrate([(writing, base.n)], sig, grid, 1e-8)
        traj = _simulate_signal(dataclasses.replace(base, f=writing), bn, [1], sig, 1e-8)
        assert "read-only" in traj.full


class TestPlantField:
    def test_replaced_plant_reaches_the_simulation(self):
        # a wrapper of lti6's declared f goes through the list adapter at
        # every field call, with the bits of the declared list form
        base, bn, _ = _reduced_pair("lti6", r=2)
        calls = []

        def wrapped(x, u):
            calls.append(1)
            return base.f(x, u)

        sig = input_ensemble(2, 8.0, count=1, seed=6)[0]
        declared = _simulate_signal(base, bn, [2], sig, 1e-8)
        replaced = _simulate_signal(dataclasses.replace(base, f=wrapped), bn, [2], sig, 1e-8)
        assert len(calls) > 100
        assert np.array_equal(replaced.full, declared.full)
        assert np.array_equal(replaced.reduced[2], declared.reduced[2])


class TestEstimateGap:
    def test_full_order_reduction_is_noise_level(self):
        # at r = q the reduced system is the full one in balanced coordinates;
        # on their shared step sequence the integrator makes the same error
        sysd, bn, red = _reduced_pair("tanh_first_order", r=1)
        assert red.order == bn.bal.q
        ens = input_ensemble(1, 12.0, count=3, seed=2)
        est = _gap(sysd, bn, red, ens, tol=1e-9)
        assert est.value < 1e-12
        assert not est.excluded

    def test_monotone_in_ensemble_size(self):
        sysd, bn, red = _reduced_pair("lti6", r=3)
        ens = input_ensemble(2, 15.0, count=5, seed=3)
        prefix = _gap(sysd, bn, red, ens[:2], tol=1e-7)
        full = _gap(sysd, bn, red, ens, tol=1e-7)
        assert full.value >= prefix.value

    def test_deterministic_json(self):
        sysd, bn, red = _reduced_pair("tanh_first_order", r=1)
        ens = input_ensemble(1, 10.0, count=3, seed=4)
        a = _gap(sysd, bn, red, ens, tol=1e-8)
        b = _gap(sysd, bn, red, ens, tol=1e-8)
        assert json.dumps(dataclasses.asdict(a), sort_keys=True) == json.dumps(
            dataclasses.asdict(b), sort_keys=True
        )

    def test_failed_integration_is_excluded(self):
        sysd, bn, red = _reduced_pair("tanh_first_order", r=1)

        def exploding(x, u):
            if abs(float(x[0])) > 1e-3:
                raise ValueError("synthetic integration failure")
            return -x + np.tanh(u)

        bad = ControlSystem(
            name="exploding", n=1, l=1, p=1, f=exploding, h=lambda x: x.copy(), lipschitz_u=1.0
        )
        ens = input_ensemble(1, 8.0, count=2, seed=6)
        est = _gap(bad, bn, red, ens, tol=1e-8)
        assert len(est.excluded) == 2

        # one failed full integration excludes its signal at every order,
        # with the error text of that integration
        _, bn_s, _ = _reduced_pair("slow_manifold", r=1)
        exploding_s = _exploding_full(get_builtin("slow_manifold"))
        trajectories = simulate_ensemble(exploding_s, bn_s, [1, 2], ens, 1e-8)
        assert all(isinstance(t.full, str) and "synthetic" in t.full for t in trajectories)
        expected = [{"signal": s.name, "error": t.full} for s, t in zip(ens, trajectories)]
        for r in (1, 2):
            _, bn_r, red_r = _reduced_pair("slow_manifold", r=r)
            est_r = estimate_gap(trajectories, red_r, ens)
            assert est_r.excluded == expected
            assert not est_r.per_signal

    def test_failed_reduced_order_is_excluded_at_that_order_only(self):
        sysd, bn, red1 = _reduced_pair("slow_manifold", r=1)
        _, _, red2 = _reduced_pair("slow_manifold", r=2)
        ens = input_ensemble(1, 8.0, count=2, seed=6)
        # the healthy order, solved alone after the stacked solve failed,
        # matches its stacked solve with the full system to integration accuracy
        stacked = estimate_gap(simulate_ensemble(sysd, bn, [1], ens, 1e-8), red1, ens)
        for broken, error in _broken_order_2(bn):
            trajectories = simulate_ensemble(sysd, broken, [1, 2], ens, 1e-8)
            est1 = estimate_gap(trajectories, red1, ens)
            est2 = estimate_gap(trajectories, red2, ens)
            assert not est1.excluded
            assert len(est1.per_signal) == 2
            assert [e["signal"] for e in est2.excluded] == [s.name for s in ens]
            assert all(error in e["error"] for e in est2.excluded)
            assert not est2.per_signal
            assert abs(est1.value - stacked.value) <= 1e-6
            for got, alone in zip(est1.per_signal, stacked.per_signal, strict=True):
                assert got["signal"] == alone["signal"]
                assert abs(got["ratio"] - alone["ratio"]) <= 1e-6

    def test_stacked_solve_matches_block_by_block(self):
        sysd, bn, _ = _reduced_pair("lti6", r=2)
        orders = [2, 4]
        ens = input_ensemble(2, 15.0, count=2, seed=3)
        for signal, traj in zip(ens, simulate_ensemble(sysd, bn, orders, ens, 1e-7)):
            grid = np.linspace(0.0, signal.horizon, _N_GRID)
            (xs,) = _integrate([(list_field(sysd.f), sysd.n)], signal, grid, 1e-7)
            ys = np.stack([sysd.h(x) for x in xs])
            assert np.max(np.abs(traj.full - ys)) <= 1e-6
            for r in orders:
                (zs,) = _integrate([(bn.f_reduced, [r])], signal, grid, 1e-7)
                assert np.max(np.abs(traj.reduced[r] - zs)) <= 1e-6

    def test_order_estimate_stable_under_other_orders(self):
        # the other requested orders change the shared step sequence, but
        # every block keeps its own error control, so one order's estimate
        # moves only at integration-error level, far inside the 1e-6 cushion
        for name, r, others in (("lti6", 2, [4, 6]), ("slow_manifold", 1, [2])):
            sysd, bn, red = _reduced_pair(name, r=r)
            ens = input_ensemble(sysd.l, 10.0, count=3, seed=5)
            alone = _gap(sysd, bn, red, ens, tol=1e-8)
            together = estimate_gap(simulate_ensemble(sysd, bn, [r] + others, ens, 1e-8), red, ens)
            assert abs(alone.value - together.value) <= 1e-7

    def test_linear_first_order_truncation_brackets(self):
        # classical behavior: the measured gap sits between a healthy
        # fraction of the next Hankel value and twice the tail sum
        sysd, bn, red = _reduced_pair("lti6", r=1)
        hsv_next = float(red.hsv_tail[0])
        ens = input_ensemble(2, 25.0, count=6, seed=8)
        est = _gap(sysd, bn, red, ens, tol=1e-7)
        assert est.value <= 2.0 * red.hankel_tail + 1e-6
        assert est.value >= 0.3 * hsv_next


EXPR_LIFT = Path(__file__).resolve().parents[1] / "perfbench" / "expr_lift_system.json"


class _TwoArgError(Exception):
    """Pickles as ``cls(text)``, which its two-argument ``__init__`` refuses."""

    def __init__(self, where, what):
        super().__init__(f"{where}: {what}")


def _use_cpus(monkeypatch, cpus):
    # 1 keeps simulate_ensemble in-process; 2 forks a worker per signal up to 2
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)


def _parent_solves(monkeypatch, *args):
    """simulate_ensemble(*args) and the number of ODE solves it made in this
    process, which a forked worker's solves do not reach."""
    calls = []
    original = harness.integrate_ode

    def integrate_ode(*a, **k):
        calls.append(1)
        return original(*a, **k)

    monkeypatch.setattr(harness, "integrate_ode", integrate_ode)
    try:
        return simulate_ensemble(*args), len(calls)
    finally:
        monkeypatch.setattr(harness, "integrate_ode", original)


class TestForkedWorkers:
    def _assert_forked_equals_serial(self, monkeypatch, *args):
        _use_cpus(monkeypatch, 1)
        serial, solves = _parent_solves(monkeypatch, *args)
        assert solves >= len(args[3])
        _use_cpus(monkeypatch, 2)
        forked, solves = _parent_solves(monkeypatch, *args)
        assert solves == 0
        assert len(forked) == len(serial)
        for a, b in zip(serial, forked):
            assert np.array_equal(a.grid, b.grid)
            if isinstance(a.full, str):
                assert a.full == b.full
            else:
                assert np.array_equal(a.full, b.full)
            assert list(a.reduced) == list(b.reduced)
            for x, y in zip(a.reduced.values(), b.reduced.values()):
                assert x == y if isinstance(x, str) else np.array_equal(x, y)
        return serial

    @pytest.mark.parametrize(
        "name, orders", [("lti6", [2, 4]), ("slow_manifold", [1, 2]), ("expr_lift", [1, 2, 3])]
    )
    def test_forked_equals_serial_bit_for_bit(self, name, orders, monkeypatch, tmp_path):
        if name == "expr_lift":
            if not EXPR_LIFT.exists():
                pytest.skip("perfbench/ is not in this checkout")
            spec = json.loads(EXPR_LIFT.read_text())
            cfg = pipeline.PipelineConfig(system=spec, reduction_orders=orders,
                                          output_dir=str(tmp_path), sample_budget=400)
            for stage in (pipeline.stage_fit_koopman, pipeline.stage_decompose, pipeline.stage_balance):
                stage(cfg)
            sysd, _, _, bn, _ = pipeline._reduced_models(cfg, "simulate")
        else:
            sysd, bn, _ = _reduced_pair(name, r=orders[0])
        # 3 tones, a burst and a chirp
        ens = input_ensemble(sysd.l, 10.0, count=5, seed=3)
        self._assert_forked_equals_serial(monkeypatch, sysd, bn, orders, ens, 1e-7)

    def test_failed_solves_give_the_same_error_text(self, monkeypatch):
        ens = input_ensemble(1, 8.0, count=2, seed=6)
        base, bn, _ = _reduced_pair("slow_manifold", r=1)
        serial = self._assert_forked_equals_serial(monkeypatch, _exploding_full(base), bn, [1, 2], ens, 1e-8)
        assert all("synthetic" in t.full for t in serial)
        for broken, error in _broken_order_2(bn):
            serial = self._assert_forked_equals_serial(monkeypatch, base, broken, [1, 2], ens, 1e-8)
            assert all(error in t.reduced[2] for t in serial)

    def test_worker_exception_is_raised_with_its_type_and_text(self, monkeypatch):
        base, bn, _ = _reduced_pair("slow_manifold", r=1)

        slow = []

        def h(x):
            # the text differs per signal; the in-process loop raises the
            # first signal's, which the forked run delays to finish last
            if np.any(x):
                text = f"broken output map at {float(np.linalg.norm(x)):.17g}"
                if text in slow:
                    time.sleep(0.5)
                raise KeyError(text)
            return base.h(x)

        broken = dataclasses.replace(base, h=h)
        ens = input_ensemble(1, 8.0, count=3, seed=6)
        texts = []
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            with pytest.raises(KeyError) as info:
                simulate_ensemble(broken, bn, [1], ens, 1e-8)
            texts.append(str(info.value))
            slow.append(info.value.args[0])
        assert texts[0] == texts[1]
        assert "broken output map" in texts[0]

    def test_killed_worker_raises_runtime_error(self, monkeypatch):
        base, bn, _ = _reduced_pair("tanh_first_order", r=1)
        parent = os.getpid()

        def dying(x, u):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return base.f(x, u)

        _use_cpus(monkeypatch, 2)
        ens = input_ensemble(1, 8.0, count=3, seed=6)
        with pytest.raises(RuntimeError, match=r"worker was killed by signal 9 under probe signal tone-"):
            simulate_ensemble(dataclasses.replace(base, f=dying), bn, [1], ens, 1e-8)

    def test_exception_that_does_not_survive_pickling_keeps_its_text(self, monkeypatch):
        base, bn, _ = _reduced_pair("tanh_first_order", r=1)

        def h(x):
            if np.any(x):
                raise _TwoArgError("output map", "broken")
            return base.h(x)

        broken = dataclasses.replace(base, h=h)
        ens = input_ensemble(1, 8.0, count=3, seed=6)
        _use_cpus(monkeypatch, 1)
        with pytest.raises(_TwoArgError, match="^output map: broken$"):
            simulate_ensemble(broken, bn, [1], ens, 1e-8)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^_TwoArgError: output map: broken$"):
            simulate_ensemble(broken, bn, [1], ens, 1e-8)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("path", ["success", "worker exception", "killed worker"])
    def test_no_file_descriptor_is_left_open(self, path, monkeypatch):
        base, bn, _ = _reduced_pair("tanh_first_order", r=1)
        parent = os.getpid()

        def f(x, u):
            if os.getpid() != parent and path == "killed worker":
                os.kill(os.getpid(), signal.SIGKILL)
            return base.f(x, u)

        def h(x):
            if np.any(x) and path == "worker exception":
                raise KeyError("broken output map")
            return base.h(x)

        _use_cpus(monkeypatch, 2)
        ens = input_ensemble(1, 8.0, count=3, seed=6)
        before = sorted(os.listdir("/proc/self/fd"))
        raised = None
        try:
            simulate_ensemble(dataclasses.replace(base, f=f, h=h), bn, [1], ens, 1e-8)
        except (KeyError, RuntimeError) as exc:
            raised = type(exc)
        assert raised is {"success": None, "worker exception": KeyError, "killed worker": RuntimeError}[path]
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_signals_are_handed_out_highest_peak_freq_first(self):
        ens = input_ensemble(1, 10.0, count=5, seed=3)  # 3 tones, a burst and a chirp
        flat = Signal(name="flat", fn=lambda ts: np.ones((ts.size, 1)), horizon=10.0, l2_norm=1.0)
        # ties keep input order: the chirp before its copy, flat-a before flat-b
        ens += [dataclasses.replace(ens[4], name="chirp-copy"),
                dataclasses.replace(flat, name="flat-a"), dataclasses.replace(flat, name="flat-b")]
        served = itertools.count()  # advanced in the child only
        results = _fan_out(lambda sig: (sig.name, next(served)), ens, 1)
        assert [name for name, _ in results] == [s.name for s in ens]
        order = [name for name, _ in sorted(results, key=lambda r: r[1])]
        assert order == ["chirp-0", "chirp-copy", "tone-2", "burst-0", "tone-1", "tone-0", "flat-a", "flat-b"]
        peaks = {s.name: s.peak_freq for s in ens}
        assert [peaks[n] for n in order] == sorted(peaks.values(), reverse=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_error_in_input_order_when_handed_out_last(self, workers):
        ens = input_ensemble(1, 10.0, count=5, seed=3)
        assert min(ens, key=lambda s: s.peak_freq) is ens[0]  # tone-0 goes out last

        def solve(sig):
            if sig.name in ("tone-0", "burst-0"):
                raise KeyError(sig.name)
            return sig.name

        with pytest.raises(KeyError, match="tone-0"):
            _fan_out(solve, ens, workers)

    def test_second_thread_keeps_the_solves_in_process(self, monkeypatch):
        sysd, bn, _ = _reduced_pair("tanh_first_order", r=1)
        ens = input_ensemble(1, 8.0, count=2, seed=6)
        _use_cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            _, solves = _parent_solves(monkeypatch, sysd, bn, [1], ens, 1e-8)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert solves == len(ens)


class TestValidateCertificate:
    @staticmethod
    def _cert(bound):
        zero = FeedbackDecomposition(1.0, 0.0, 0.0, True)
        return build_certificate(
            order=1, full=zero, reduced=zero,
            output_gap_full=0.0, output_gap_reduced=0.0,
            control_gain=0.0, hinf_output=1.0, hsv_tail=[bound / 2.0],
        )

    def test_pass_with_tightness(self):
        status, tightness = judge_bound(self._cert(0.5).total_bound, 0.4, 0)
        assert status == "PASS"
        assert np.isclose(tightness, 0.8)

    def test_fail_on_soundness_violation(self):
        status, _ = judge_bound(self._cert(0.5).total_bound, 0.6, 0)
        assert status == "FAIL"

    def test_skip_on_small_gain_violation(self):
        hot = FeedbackDecomposition(2.0, 0.6, 1.2, False)
        cold = FeedbackDecomposition(1.0, 0.0, 0.0, True)
        cert = build_certificate(
            order=1, full=hot, reduced=cold,
            output_gap_full=0.0, output_gap_reduced=0.0,
            control_gain=0.0, hinf_output=1.0, hsv_tail=[0.1],
        )
        status, tightness = judge_bound(cert.total_bound, 0.01, 0)
        assert status == "SKIPPED-SMALL-GAIN"
        assert tightness is None

    def test_exclusions_forbid_pass(self):
        status, _ = judge_bound(self._cert(0.5).total_bound, 0.1, excluded=1)
        assert status == "FAIL"
