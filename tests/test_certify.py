import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from koopgram import pipeline
from koopgram.balance import balance, balanced_nonlinear, factor_error, truncate
from koopgram.certify import (
    FeedbackDecomposition,
    build_certificate,
    control_truncation_gain,
    feedback_decomposition,
    feedback_removal_gap,
    input_to_state_norm,
    is_control_affine,
    lift_sensitivity_norms,
    output_embedding_gap,
    truncation_error_bound,
)
from koopgram.gsvd import GainProfile, decompose
from koopgram.linalg import LtiSystem, SpectrumError, hinf_norm, is_hurwitz, spectral_norm

from oracles import hinf_by_sweep, random_stable_system
from test_balance import EXPR_LIFT, fit_pipeline, linear_plant
from koopgram.expr import builtin_declaration, system_from_spec
from koopgram.koopman import build_dictionary, lifted_control_term


class TestControlTruncationGain:
    def test_control_affine_shortcut(self):
        assert control_truncation_gain(2.0, 0.5, 3.0, control_affine=True) == 0.0

    def test_zero_lipschitz(self):
        assert control_truncation_gain(0.0, 1.0, 1.0, control_affine=False) == 0.0

    def test_product(self):
        assert control_truncation_gain(2.0, 0.5, 3.0, control_affine=False) == 3.0


class TestTruncationErrorBound:
    def test_no_truncation_linear(self):
        assert truncation_error_bound(0.0, 5.0, []) == 0.0

    def test_classical_tail_bound(self):
        assert truncation_error_bound(0.0, 5.0, [0.25]) == 0.5

    def test_mixed_terms(self):
        assert np.isclose(truncation_error_bound(0.1, 2.0, [0.3, 0.1]), 1.2)

    def test_nonincreasing_in_order(self):
        hsv = np.array([1.0, 0.5, 0.2, 0.05])
        bounds = [truncation_error_bound(0.1, 2.0, hsv[r:]) for r in range(1, 5)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


class TestInputToStateNorm:
    def test_scalar_lag(self):
        assert abs(input_to_state_norm([[-1.0]], [[1.0]], tol=1e-8) - 1.0) <= 1e-7

    def test_zero_input_matrix(self):
        assert input_to_state_norm([[-1.0]], [[0.0]]) == 0.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(30)
        a, b, _ = random_stable_system(rng, 4, 2, 1)
        got = input_to_state_norm(a, b, tol=1e-7)
        ref = hinf_by_sweep(a, b, np.eye(4), n_points=20_000)
        assert abs(got - ref) <= 1e-4 * ref

    def test_rejects_unstable(self):
        with pytest.raises(SpectrumError):
            input_to_state_norm([[1.0]], [[1.0]])


class TestOutputEmbeddingGap:
    def test_identity_output_costs_nothing(self):
        assert output_embedding_gap(np.eye(3), 7.0) == 0.0

    def test_zero_output(self):
        assert np.isclose(output_embedding_gap(np.zeros((1, 1)), 2.0), 2.0)

    def test_row_selector(self):
        gap = output_embedding_gap(np.array([[1.0, 0.0]]), 1.0)
        assert np.isclose(gap, 1.0)  # difference matrix [[0,0],[0,-1]]


class TestFeedbackRemovalGap:
    def test_zero_error_block(self):
        assert feedback_removal_gap(3.0, 0.0) == 0.0

    def test_half_loop(self):
        assert np.isclose(feedback_removal_gap(1.0, 0.5), 1.0)

    def test_small_gain_violation_returns_none(self):
        assert feedback_removal_gap(2.0, 0.6) is None

    def test_monotone_in_error_gain(self):
        gp = 2.0
        gaps = [feedback_removal_gap(gp, g) for g in np.linspace(0.0, 0.49, 20)]
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))


class TestFeedbackDecomposition:
    def test_exact_model_loop_is_closed(self):
        a = -np.eye(2)
        b = np.hstack([np.eye(2), np.zeros((2, 1))])
        fb = feedback_decomposition(a, b, None)
        assert fb.ge_gain == 0.0
        assert fb.small_gain_ok

    def test_error_gain_matches_direct_svd(self):
        rng = np.random.default_rng(31)
        a, b, _ = random_stable_system(rng, 3, 3, 1)
        # synthetic error block: scaled mixture through b's columns
        d_err = 0.5 * b @ rng.normal(size=(3, 6))
        fake = SimpleNamespace(u=np.eye(3), sigma=d_err)
        fb = feedback_decomposition(a, b, fake)
        assert np.isclose(fb.ge_gain, spectral_norm(np.linalg.pinv(b) @ d_err), atol=1e-12)

    def test_large_loop_flags_violation(self):
        a = np.array([[-0.1]])
        b = np.array([[1.0, 0.0]])
        fake = SimpleNamespace(u=np.eye(1), sigma=np.array([[5.0, 0.0]]))
        fb = feedback_decomposition(a, b, fake)
        assert fb.loop_gain >= 1.0
        assert not fb.small_gain_ok


def linear_spec():
    """The declaration of ``test_balance.linear_plant``."""
    a, b, c, _, _ = linear_plant()
    return {"n": 2, "l": 1, "p": 1, "f": {"a": a.tolist(), "b": b.tolist()}, "h": {"c": c.tolist()}}


def _op(name, *args):
    return {"op": name, "args": list(args)}


X1, X2, U1 = {"var": "x1"}, {"var": "x2"}, {"var": "u1"}
EYE2, SQUARE_X1, SQUARE_X2 = [[1, 0], [0, 1]], [[1, 0], [0, 1], [2, 0]], [[1, 0], [0, 1], [0, 2]]
MATRIX_F = {"n": 2, "l": 1, "p": 1, "f": {"a": [[-1.0, 0.5], [0.0, -2.0]], "b": [[1.0], [0.0]]},
            "h": {"c": [[1.0, 0.0]]}}


def _trees(*f):
    return {"n": 2, "l": 1, "p": 1, "f": list(f), "h": [X1], "lipschitz_u": 3.0}


# x1' = -x1 + 3 tanh u1 drives x1; x2' reads no input
DRIVEN_X1 = _op("add", _op("neg", X1), _op("mul", 3.0, _op("tanh", U1)))
AFFINITY_TABLE = {
    "matrix_f": (MATRIX_F, SQUARE_X2, True),
    "matrix_f_observable_on_driven_row": (MATRIX_F, SQUARE_X1, False),
    "constant_times_state_term": (
        _trees(_op("sub", _op("mul", {"const": 2.0}, _op("neg", X1)), _op("tanh", U1)),
               _op("mul", _op("add", -1.5, 0.5), _op("sin", X2))), EYE2, True),
    "term_reads_state_and_input": (_trees(DRIVEN_X1, _op("add", _op("neg", X2), _op("mul", X1, U1))),
                                   EYE2, False),
    "observable_on_driven_coordinate": (
        _trees(DRIVEN_X1, _op("add", _op("mul", -2.0, X2), _op("pow", X1, 2))), SQUARE_X1, False),
    "observable_on_undriven_coordinates": (
        _trees(_op("add", DRIVEN_X1, _op("pow", X2, 2)), _op("mul", -2.0, X2)), SQUARE_X2, True),
}


# each bundled declaration and the expr-lift spec, with its flag at the
# parent commit, when a sampled probe decided it
DECLARED_FLAGS = {"lti6": True, "slow_manifold": False, "slow_manifold_identity": False,
                  "tanh_first_order": True, "mild_cubic": True, "expr_lift": False}


def _case(name):
    """(declaration, exponents of its dictionary, expected flag) of a table row."""
    if name in AFFINITY_TABLE:
        return AFFINITY_TABLE[name]
    if name == "expr_lift":
        if not EXPR_LIFT.exists():
            pytest.skip("perfbench/ is not in this checkout")
        spec = json.loads(EXPR_LIFT.read_text())
    else:
        spec = builtin_declaration(name)
    hint = spec.get("dictionary", {"kind": "identity"})
    d = build_dictionary(hint["kind"], spec["n"], exponents=hint.get("exponents"))
    return spec, d.exponents, DECLARED_FLAGS[name]


def _state_dependent(spec, exponents):
    """Whether the lifted control term ``D_phi(x) (f(x, u) - f(x, 0))``,
    sampled on 64 states in ``[-2, 2]`` at one input, leaves the origin's
    value by more than ``1e-10`` relative."""
    system = system_from_spec(spec)
    d = build_dictionary("monomials", system.n, exponents=exponents)
    rng = np.random.default_rng(0)
    xs = np.vstack([np.zeros(system.n), rng.uniform(-2.0, 2.0, size=(64, system.n))])
    us = np.broadcast_to(rng.uniform(-2.0, 2.0, size=system.l), (len(xs), system.l))
    values = lifted_control_term(system.f, d, system.l)(xs, us)
    return bool(np.max(np.abs(values - values[0])) > 1e-10 * (1.0 + np.max(np.abs(values))))


class TestIsControlAffine:
    def test_linear_plant_is_affine(self):
        assert is_control_affine(linear_spec(), build_dictionary("identity", 2).exponents)

    def test_state_scaled_control_is_not_affine(self):
        d = build_dictionary("monomials", 2, exponents=[(1, 0), (0, 1), (2, 0)])
        assert not is_control_affine(builtin_declaration("slow_manifold"), d.exponents)

    @pytest.mark.parametrize("name", [*DECLARED_FLAGS, *AFFINITY_TABLE])
    def test_rule_table(self, name):
        # the rule gives each declaration's flag, and the sampled control
        # term agrees: every case here is state-dependent exactly when the
        # rule says it is not affine
        spec, exponents, flag = _case(name)
        assert is_control_affine(spec, exponents) is flag
        assert _state_dependent(spec, exponents) is not flag


class TestBuildCertificate:
    @staticmethod
    def _fb(gp, ge):
        loop = gp * ge
        return FeedbackDecomposition(gp, ge, loop, loop < 1.0)

    def test_exact_path_collapses_to_truncation_bound(self):
        cert = build_certificate(
            order=1,
            full=self._fb(2.0, 0.0),
            reduced=self._fb(1.5, 0.0),
            output_gap_full=0.7,
            output_gap_reduced=0.3,
            control_gain=0.0,
            hinf_output=4.0,
            hsv_tail=[0.25],
        )
        assert cert.exact_representation
        assert cert.status == "finite"
        assert np.isclose(cert.total_bound, 0.5)
        assert np.isclose(cert.truncation_bound, 0.5)

    def test_five_term_sum(self):
        cert = build_certificate(
            order=2,
            full=self._fb(2.0, 0.1),
            reduced=self._fb(1.0, 0.2),
            output_gap_full=0.7,
            output_gap_reduced=0.3,
            control_gain=0.05,
            hinf_output=4.0,
            hsv_tail=[0.25, 0.05],
        )
        assert not cert.exact_representation
        expect = (
            0.7
            + feedback_removal_gap(2.0, 0.1)
            + truncation_error_bound(0.05, 2.0, [0.25, 0.05])
            + feedback_removal_gap(1.0, 0.2)
            + 0.3
        )
        assert np.isclose(cert.total_bound, expect)
        assert cert.total_bound >= cert.truncation_core

    def test_small_gain_violation_marks_unbounded(self):
        cert = build_certificate(
            order=1,
            full=self._fb(2.0, 0.6),
            reduced=self._fb(1.0, 0.1),
            output_gap_full=0.0,
            output_gap_reduced=0.0,
            control_gain=0.0,
            hinf_output=1.0,
            hsv_tail=[0.1],
        )
        assert cert.total_bound is None
        assert cert.status == "small-gain-violated"
        assert cert.failing_loop == "full"
        assert pipeline._jsonable(cert)["total_bound"] is None

    def test_every_term_below_finite_total(self):
        cert = build_certificate(
            order=1,
            full=self._fb(1.2, 0.3),
            reduced=self._fb(1.1, 0.25),
            output_gap_full=0.4,
            output_gap_reduced=0.2,
            control_gain=0.02,
            hinf_output=2.0,
            hsv_tail=[0.3],
        )
        for term in (
            cert.output_gap_full,
            cert.output_gap_reduced,
            cert.removal_gap_full,
            cert.removal_gap_reduced,
            cert.truncation_core,
        ):
            assert term <= cert.total_bound


class TestEndToEndFiveTermPath:
    def test_mild_nonlinearity_gives_finite_total_dominating_each_term(self):
        from koopgram.expr import get_builtin
        from koopgram.koopman import collect_trajectories, fit_koopman, lifted_control_term
        from koopgram.gsvd import decompose, estimate_gains
        from koopgram.balance import balance
        from koopgram.linalg import hinf_norm

        sysd = get_builtin("mild_cubic")
        d = build_dictionary("identity", 2)
        data = collect_trajectories(sysd.drift, 2, count=25, horizon=3.0, box=1.5, seed=0)
        model = fit_koopman(sysd.drift, sysd.h, d, data)
        assert model.residual_gain > 1e-4  # genuinely inexact representation
        fu = lifted_control_term(sysd.f, d, l=1)
        gains = estimate_gains(fu, (2, 1), sample_budget=1000, seed=0, box=sysd.gain_box)
        factor = decompose(fu, (2, 1), gains)
        bal = balance(LtiSystem(model.a, factor.u @ factor.sigma, model.c), state_dim=2)
        red = truncate(bal, 1)
        bn = balanced_nonlinear(sysd.f, 1, model, bal)
        fb_full = feedback_decomposition(
            bal.a_bal, bal.b_bal, factor_error(bn, reduced=None, seed=1, box=sysd.gain_box)
        )
        fb_red = feedback_decomposition(
            red.a_r, red.b_r, factor_error(bn, reduced=red, seed=2, box=sysd.gain_box)
        )
        lift_norm, rec_norm = lift_sensitivity_norms(bal, factor.u, factor.sigma)
        cert = build_certificate(
            order=1,
            full=fb_full,
            reduced=fb_red,
            output_gap_full=output_embedding_gap(
                bal.c_bal, input_to_state_norm(bal.a_bal, bal.b_bal)
            ),
            output_gap_reduced=output_embedding_gap(
                red.c_r, input_to_state_norm(red.a_r, red.b_r)
            ),
            control_gain=control_truncation_gain(
                sysd.lipschitz_u, lift_norm, rec_norm,
                is_control_affine(builtin_declaration("mild_cubic"), d.exponents),
            ),
            hinf_output=hinf_norm(LtiSystem(bal.a_bal, bal.b_bal, bal.c_bal)),
            hsv_tail=red.hsv_tail,
        )
        assert not cert.exact_representation
        assert cert.status == "finite"
        for term in (
            cert.output_gap_full,
            cert.output_gap_reduced,
            cert.removal_gap_full,
            cert.removal_gap_reduced,
            cert.truncation_core,
        ):
            assert 0.0 <= term <= cert.total_bound


class TestEndToEndLinearCollapse:
    def test_linear_pipeline_beta_zero_and_classical_bound(self):
        _, _, _, f, h = linear_plant()
        d = build_dictionary("identity", 2)
        model, factor, bal = fit_pipeline(f, h, d)
        red = truncate(bal, 1)
        bn = balanced_nonlinear(f, 1, model, bal)
        affine = is_control_affine(linear_spec(), d.exponents)
        lift_norm, rec_norm = lift_sensitivity_norms(bal, factor.u, factor.sigma)
        gain = control_truncation_gain(1.0, lift_norm, rec_norm, affine)
        assert gain == 0.0
        err_full = factor_error(bn, reduced=None, seed=3)
        err_red = factor_error(bn, reduced=red, seed=4)
        fb_full = feedback_decomposition(bal.a_bal, bal.b_bal, err_full)
        fb_red = feedback_decomposition(red.a_r, red.b_r, err_red)
        assert fb_full.ge_gain <= 1e-9
        assert fb_red.ge_gain <= 1e-9
        sys_out = LtiSystem(bal.a_bal, bal.b_bal, bal.c_bal)
        cert = build_certificate(
            order=1,
            full=fb_full,
            reduced=fb_red,
            output_gap_full=output_embedding_gap(
                bal.c_bal, input_to_state_norm(bal.a_bal, bal.b_bal)
            ),
            output_gap_reduced=output_embedding_gap(
                red.c_r, input_to_state_norm(red.a_r, red.b_r)
            ),
            control_gain=gain,
            hinf_output=hinf_norm(sys_out),
            hsv_tail=red.hsv_tail,
        )
        assert cert.exact_representation
        assert abs(cert.total_bound - 2.0 * np.sum(red.hsv_tail)) <= 1e-8


def _linear_error_factor(e):
    """``z -> E z`` factored with its row-norm gains, asserted exact (slack 1)."""
    return decompose(lambda z: e @ z, e.shape[0], GainProfile(np.linalg.norm(e, axis=1)), slack=1.0)


def _oracle_rows(seed, count, full_row_rank):
    """(bound, true error) of every finite certificate over ``count`` random systems.

    Each system is a random stable ``(A, B, C)`` of order q in 2..5 with p in
    1..2 outputs and ``m`` in 1..2, where ``B`` has ``q + m`` columns (full
    row rank, like the pipeline's ``B = U Sigma``) or ``m`` columns.  It is
    balanced, and a drift perturbation ``E`` in balanced coordinates is
    scaled so that the full loop gain lies in (0.05, 0.9).  The true error
    of every order r < q is the H-infinity norm of
    ``(A_bal + E, B_bal, C_bal) - (A_r + E[:r, :r], B_r, C_r)``, infinite
    when either perturbed matrix is not Hurwitz.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        q, p, m = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, b, c = random_stable_system(rng, q, q + m if full_row_rank else m, p)
        e = rng.normal(size=(q, q))
        bal = balance(LtiSystem(a, b, c))
        loop = feedback_decomposition(bal.a_bal, bal.b_bal, _linear_error_factor(e)).loop_gain
        e *= rng.uniform(0.05, 0.9) / loop
        full = feedback_decomposition(bal.a_bal, bal.b_bal, _linear_error_factor(e))
        hinf_output = hinf_norm(LtiSystem(bal.a_bal, bal.b_bal, bal.c_bal))
        for r in range(1, q):
            red = truncate(bal, r)
            reduced = feedback_decomposition(red.a_r, red.b_r, _linear_error_factor(e[:r, :r]))
            cert = build_certificate(
                order=r,
                full=full,
                reduced=reduced,
                output_gap_full=output_embedding_gap(bal.c_bal, full.gp_norm),
                output_gap_reduced=output_embedding_gap(red.c_r, reduced.gp_norm),
                control_gain=0.0,
                hinf_output=hinf_output,
                hsv_tail=red.hsv_tail,
            )
            if cert.total_bound is None:
                continue
            a_full, a_red = bal.a_bal + e, red.a_r + e[:r, :r]
            true = np.inf
            if is_hurwitz(a_full) and is_hurwitz(a_red):
                diff = LtiSystem(
                    scipy.linalg.block_diag(a_full, a_red),
                    np.vstack([bal.b_bal, red.b_r]),
                    np.hstack([bal.c_bal, -red.c_r]),
                )
                true = hinf_norm(diff)
            rows.append((q, m, r, cert.total_bound, true))
    return rows


class TestExactOracleSoundness:
    """Certificates against the exact error of a linear drift perturbation."""

    @staticmethod
    def _violations(rows):
        return [row for row in rows if not row[4] <= row[3] * (1.0 + 1e-6)]

    def test_full_row_rank_input_matrix_is_sound(self):
        rows = _oracle_rows(seed=0, count=100, full_row_rank=True)
        assert len(rows) >= 150
        assert self._violations(rows) == []

    @pytest.mark.xfail(
        strict=True,
        reason="feedback_decomposition prices the error block through pinv(B), which drops "
        "the error outside range(B) when rank B < q",
    )
    def test_rank_deficient_input_matrix_is_sound(self):
        rows = _oracle_rows(seed=0, count=100, full_row_rank=False)
        assert len(rows) >= 150
        assert self._violations(rows) == []
