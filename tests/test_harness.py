import dataclasses
import json

import numpy as np
import pytest

from koopgram.balance import balance, balanced_nonlinear, truncate
from koopgram.certify import FeedbackDecomposition, build_certificate
from koopgram.gsvd import decompose, estimate_gains
from koopgram.harness import (
    ControlSystem,
    Signal,
    builtin_systems,
    estimate_gap,
    full_responses,
    get_builtin,
    input_ensemble,
    judge_bound,
    signal_l2_norm,
)
from koopgram.koopman import build_dictionary, collect_trajectories, fit_koopman, lifted_control_term
from koopgram.linalg import LtiSystem


def _gap(system, bn, red, ensemble, tol):
    responses = full_responses(system, ensemble, tol)
    return estimate_gap(responses, bn, red, ensemble, tol)


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


class TestBuiltinSystems:
    def test_all_vanish_at_origin(self):
        # construction would raise otherwise; also check the drift directly
        for sysd in builtin_systems():
            assert np.allclose(sysd.drift(np.zeros(sysd.n)), 0.0, atol=1e-12)

    def test_expected_names(self):
        names = {s.name for s in builtin_systems()}
        assert {"lti6", "slow_manifold", "slow_manifold_identity", "tanh_first_order"} <= names

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


class TestEstimateGap:
    def test_full_order_reduction_is_noise_level(self):
        sysd, bn, red = _reduced_pair("tanh_first_order", r=1)
        ens = input_ensemble(1, 12.0, count=3, seed=2)
        est = _gap(sysd, bn, red, ens, tol=1e-9)
        assert est.value <= 1e-6
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
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

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
        base = get_builtin("slow_manifold")

        def exploding2(x, u):
            if abs(float(x[0])) > 1e-3:
                raise ValueError("synthetic integration failure")
            return base.f(x, u)

        responses = full_responses(dataclasses.replace(base, f=exploding2), ens, 1e-8)
        assert all(isinstance(y, str) and "synthetic" in y for y in responses)
        expected = [{"signal": s.name, "error": y} for s, y in zip(ens, responses)]
        for r in (1, 2):
            _, bn_r, red_r = _reduced_pair("slow_manifold", r=r)
            est_r = estimate_gap(responses, bn_r, red_r, ens, 1e-8)
            assert est_r.excluded == expected
            assert not est_r.per_signal

    def test_linear_first_order_truncation_brackets(self):
        # classical behavior: the measured gap sits between a healthy
        # fraction of the next Hankel value and twice the tail sum
        sysd, bn, red = _reduced_pair("lti6", r=1)
        hsv_next = float(red.hsv_tail[0])
        ens = input_ensemble(2, 25.0, count=6, seed=8)
        est = _gap(sysd, bn, red, ens, tol=1e-7)
        assert est.value <= 2.0 * red.hankel_tail + 1e-6
        assert est.value >= 0.3 * hsv_next


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
