"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one verdict line per
criterion.  Each test is self-contained and enforces both the numeric
tolerances and the runtime budget of its criterion.
"""

import hashlib
import time

import numpy as np
import pytest

from koopgram.balance import balance, balanced_nonlinear, factor_error, truncate
from koopgram.certify import (
    build_certificate,
    feedback_decomposition,
    feedback_removal_gap,
)
from koopgram.expr import get_builtin
from koopgram.gsvd import (
    GainProfile,
    decompose,
    estimate_gains,
)
from koopgram.harness import judge_bound
from koopgram.koopman import (
    build_dictionary,
    collect_trajectories,
    fit_koopman,
    lifted_control_term,
)
from koopgram.linalg import LtiSystem, hinf_norm, row_products, solve_lyapunov
from koopgram.pipeline import PipelineConfig, run_pipeline, stage_balance, stage_certify, stage_decompose, stage_fit_koopman

from oracles import hinf_by_sweep, lyapunov_by_quadrature, random_stable_system


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {label}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({label}) failed" + (f": {detail}" if detail else "")


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_criterion_1_norm_preservation_and_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    factors = []
    # single-argument maps through the gain-sized construction
    factors.append((decompose(lambda x: 2.0 * x, 1, GainProfile([2.0]), slack=1.3), 1, None))
    factors.append((decompose(lambda x: np.tanh(x), 2, GainProfile([1.0, 1.0])), 2, None))
    f3 = lambda x: np.stack([np.sin(x[..., 0]), x[..., 1] / (1.0 + x[..., 0] ** 2)], axis=-1)
    factors.append((decompose(f3, 2, estimate_gains(f3, 2, 2000, seed=0)), 2, None))
    f4 = lambda x: np.stack([np.sin(x[..., 0] + x[..., 2]), np.tanh(x[..., 1]), 0.5 * x[..., 2]], axis=-1)
    factors.append((decompose(f4, 3, estimate_gains(f4, 3, 2000, seed=1)), 3, None))
    factors.append((decompose(lambda x: np.zeros(2), 2, GainProfile([0.0, 0.0])), 2, None))
    # caller-supplied gain profiles, asserted exact (slack 1)
    a_lin = np.diag([2.0, 1.0]) @ _rotation(0.37)
    factors.append((decompose(lambda x: a_lin @ x, 2, GainProfile([2.0, 1.0]), slack=1.0), 2, None))

    def radial(x):
        r = np.linalg.norm(x)
        return x * (np.tanh(r) / r) if r > 0 else np.zeros_like(x)

    factors.append((decompose(radial, 3, GainProfile([1.0, 1.0, 1.0]), slack=1.0), 3, None))
    factors.append((decompose(lambda x: np.zeros(2), 2, GainProfile([0.0, 0.0]), slack=1.0), 2, None))
    # control-argument maps, norm carried by the second argument; decompose
    # checks them on a stack of states, so they take one point or a stack
    fu1 = lambda x, u: np.cos(x[..., :1]) * np.tanh(u[..., :1])
    factors.append((decompose(fu1, (1, 1), GainProfile([1.0])), 1, 1))
    bmat = np.array([[1.0, 0.4], [0.0, 1.5]])
    fu2 = lambda x, u: row_products(bmat, u)
    factors.append((decompose(fu2, (2, 2), GainProfile(np.linalg.norm(bmat, axis=1)), slack=1.1), 2, 2))
    fu3 = lambda x, u: np.concatenate([0.3 * np.tanh(u[..., :1]), np.tanh(u[..., :1])], axis=-1)
    factors.append((decompose(fu3, (2, 1), GainProfile([0.3, 1.0])), 2, 1))

    assert len(factors) == 11
    ok = True
    for factor, n, l in factors:
        for _ in range(1000):
            if l is None:
                args = (rng.uniform(-4.0, 4.0, size=n),)
            else:
                args = (rng.uniform(-4.0, 4.0, size=n), rng.uniform(-4.0, 4.0, size=l))
            designated = args[-1]
            v = factor.lift(*args)
            na = np.linalg.norm(designated)
            ok &= abs(np.linalg.norm(v) - na) <= 1e-10 * (1.0 + na)
            fx = np.asarray(factor.map(*args), float)
            err = np.linalg.norm(factor.u @ (factor.sigma @ v) - fx)
            ok &= err <= 1e-10 * (1.0 + np.linalg.norm(fx))
    elapsed = time.perf_counter() - start
    _verdict(1, "norm-preserving factorization", ok and elapsed < 5.0, elapsed, 5.0)


def test_criterion_2_linear_collapse(tmp_path):
    start = time.perf_counter()
    cfg = PipelineConfig(
        system="lti6",
        reduction_orders=[1, 2, 3, 4, 5, 6],
        output_dir=str(tmp_path / "lti6"),
        seed=0,
    )
    stage_fit_koopman(cfg)
    stage_decompose(cfg)
    balanced = stage_balance(cfg)
    certs = stage_certify(cfg)
    hsv = np.asarray(balanced["hsv"], float)
    ok = True
    for cert in certs["orders"]:
        r = cert["order"]
        ok &= cert["control_gain"] == 0.0
        ok &= cert["ge_gain_full"] <= 1e-9
        ok &= cert["ge_gain_reduced"] <= 1e-9
        classical = 2.0 * float(np.sum(hsv[r:]))
        ok &= abs(cert["total_bound"] - classical) <= 1e-8
    elapsed = time.perf_counter() - start
    _verdict(2, "linear plant collapses to the classical tail bound", ok and elapsed < 10.0, elapsed, 10.0)


def test_criterion_3_exact_lifted_generator():
    start = time.perf_counter()
    sysd = get_builtin("slow_manifold")
    d = build_dictionary("monomials", 2, exponents=sysd.dictionary_hint["exponents"])
    data = collect_trajectories(sysd.drift, 2, count=30, horizon=3.0, box=1.5, seed=0)
    model = fit_koopman(sysd.drift, sysd.h, d, data)
    expected = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -2.0]])
    ok = bool(np.max(np.abs(model.a - expected)) <= 1e-8)
    ok &= model.residual_gain <= 1e-8
    elapsed = time.perf_counter() - start
    _verdict(3, "exactly representable drift recovers its generator", ok and elapsed < 10.0, elapsed, 10.0)


MATRIX = {
    "lti6": [2, 4],
    "slow_manifold": [1, 2],
    "slow_manifold_identity": [1],
    "tanh_first_order": [1],
    "mild_cubic": [1, 2],
}


def test_criterion_4_certificate_soundness(tmp_path):
    start = time.perf_counter()
    fails = []
    finite = 0
    skipped = 0
    for seed in (0, 1, 2):
        for name, orders in MATRIX.items():
            cfg = PipelineConfig(
                system=name,
                reduction_orders=orders,
                output_dir=str(tmp_path / f"{name}-s{seed}"),
                seed=seed,
                ensemble_count=5,
                ode_tol=1e-7,
                sample_budget=1000,
            )
            report, code = run_pipeline(cfg, verbose=False)
            for row in report["rows"]:
                if row["verdict"] == "FAIL":
                    fails.append((name, seed, row["order"]))
                elif row["verdict"] == "PASS":
                    finite += 1
                    assert row["empirical"] <= row["total_bound"] + 1e-6
                else:
                    skipped += 1
    elapsed = time.perf_counter() - start
    print(f"    matrix: {finite} finite certificates sound, {skipped} skipped, {len(fails)} failures")
    ok = not fails and finite >= 20
    _verdict(4, "empirical gap below every finite certificate", ok and elapsed < 300.0, elapsed, 300.0)


def test_criterion_5_kernels_match_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    lyap_err = []
    for _ in range(20):
        a, b, _ = random_stable_system(rng, 5, 2, 1)
        q = b @ b.T
        x = solve_lyapunov(a, q)
        ref = lyapunov_by_quadrature(a, q)
        lyap_err.append(np.linalg.norm(x - ref) / np.linalg.norm(ref))
    hinf_err = []
    for _ in range(20):
        a, b, c = random_stable_system(rng, 4, 1, 1)
        got = hinf_norm(LtiSystem(a, b, c), tol=1e-7)
        ref = hinf_by_sweep(a, b, c, n_points=100_000)
        hinf_err.append(abs(got - ref) / ref)
    elapsed = time.perf_counter() - start
    # np.max keeps a NaN error, which then fails its comparison
    lyap_worst, hinf_worst = np.max(lyap_err), np.max(hinf_err)
    conditions = {
        f"solve_lyapunov worst relative error {lyap_worst:.2e} <= 1e-8": lyap_worst <= 1e-8,
        f"hinf_norm worst relative error {hinf_worst:.2e} <= 1e-4": hinf_worst <= 1e-4,
        f"elapsed {elapsed:.1f}s < budget 60s": elapsed < 60.0,
    }
    detail = "; ".join(f"{'ok' if held else 'FAILED'}: {text}" for text, held in conditions.items())
    _verdict(5, "solver kernels agree with independent oracles", all(conditions.values()), elapsed, 60.0, detail)


def test_criterion_6_small_gain_flip_and_divergence():
    start = time.perf_counter()
    sysd = get_builtin("mild_cubic")
    d = build_dictionary("identity", 2)
    data = collect_trajectories(sysd.drift, 2, count=25, horizon=3.0, box=1.5, seed=0)
    model = fit_koopman(sysd.drift, sysd.h, d, data)
    fu = lifted_control_term(sysd.f, d, l=1)
    gains = estimate_gains(fu, (2, 1), sample_budget=1000, seed=0, box=sysd.gain_box)
    factor = decompose(fu, (2, 1), gains, slack=1.05)
    bal = balance(LtiSystem(model.a, factor.u @ factor.sigma, model.c), state_dim=2)
    red = truncate(bal, 1)
    bn = balanced_nonlinear(sysd.f, 1, model, bal)
    err = factor_error(bn, reduced=None, seed=1, box=sysd.gain_box)
    fb = feedback_decomposition(bal.a_bal, bal.b_bal, err)
    assert fb.small_gain_ok and fb.ge_gain > 0

    class Scaled:
        def __init__(self, scale):
            self.u = err.u
            self.sigma = scale * err.sigma

    # inflate the error block until the loop gain crosses one
    hot_scale = 1.05 / fb.loop_gain
    fb_hot = feedback_decomposition(bal.a_bal, bal.b_bal, Scaled(hot_scale))
    ok = fb_hot.loop_gain >= 1.0 and not fb_hot.small_gain_ok
    cold = feedback_decomposition(red.a_r, red.b_r, factor_error(bn, reduced=red, seed=2))
    cert_hot = build_certificate(
        order=1, full=fb_hot, reduced=cold,
        output_gap_full=0.1, output_gap_reduced=0.1,
        control_gain=0.0, hinf_output=1.0, hsv_tail=red.hsv_tail,
    )
    ok &= cert_hot.status == "small-gain-violated"
    ok &= judge_bound(cert_hot.total_bound, 0.01, 0)[0] == "SKIPPED-SMALL-GAIN"

    # the removal gap must grow monotonically toward the small-gain limit
    gp = fb.gp_norm
    gaps = [feedback_removal_gap(gp, loop / gp) for loop in (0.5, 0.9, 0.99)]
    ok &= gaps[0] < gaps[1] < gaps[2]
    ok &= gaps[2] > 10.0 * gaps[0]
    elapsed = time.perf_counter() - start
    _verdict(6, "small-gain violation flips and loosens the certificate", ok, elapsed, 60.0)


def test_criterion_7_deterministic_reports(tmp_path):
    start = time.perf_counter()
    cfg = PipelineConfig(
        system="slow_manifold",
        reduction_orders=[1, 2],
        output_dir=str(tmp_path / "det"),
        seed=11,
        ensemble_count=3,
        ode_tol=1e-7,
    )
    run_pipeline(cfg, verbose=False)
    report_path = tmp_path / "det" / "report.json"
    first = hashlib.sha256(report_path.read_bytes()).hexdigest()
    run_pipeline(cfg, verbose=False)
    second = hashlib.sha256(report_path.read_bytes()).hexdigest()
    ok = first == second
    elapsed = time.perf_counter() - start
    _verdict(7, "identical config and seed give byte-identical reports", ok, elapsed, 120.0)
