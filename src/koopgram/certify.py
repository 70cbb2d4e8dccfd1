"""A-priori reduction error certificates for the lifted realization.

The total H-infinity error of reducing a system is priced as a sum of
independently computable terms: swapping the output matrix for the identity
(an embedding gap times an input-to-state norm), removing the
representation-error feedback loop (a small-gain gap), and truncating the
balanced realization (a Lipschitz-weighted norm plus the Hankel tail).
When either feedback loop reaches unit gain the certificate is marked
unbounded rather than reported as a huge number, so downstream reporting can
distinguish "violated" from "large".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .balance import BalancedRealization
from .gsvd import GsvdFactor, sigma_pinv
from .linalg import LtiSystem, as_matrix, hinf_norm, pinv, row_norms, row_products, spectral_norm

__all__ = [
    "FeedbackDecomposition",
    "ErrorCertificate",
    "control_truncation_gain",
    "truncation_error_bound",
    "input_to_state_norm",
    "output_embedding_gap",
    "feedback_removal_gap",
    "feedback_decomposition",
    "is_control_affine",
    "lift_sensitivity_norms",
    "build_certificate",
]

# control-affinity probe: states sampled per input, their box half-width, and
# the relative deviation of the balanced control term that counts as state
# dependence
AFFINE_SAMPLES = 64
AFFINE_BOX = 2.0
AFFINE_TOL = 1e-10


def control_truncation_gain(
    lipschitz_u: float,
    lift_norm: float,
    recovery_norm: float,
    control_affine: bool,
) -> float:
    """Gain pricing evaluation of the control lifting on truncated states.

    Zero for control-affine dynamics, where the balanced control term does
    not depend on the state at all; otherwise the product of the control
    Lipschitz bound with the lifting and recovery operator norms.
    """
    if min(lipschitz_u, lift_norm, recovery_norm) < 0:
        raise ValueError("factors must be nonnegative")
    if control_affine:
        return 0.0
    return float(lipschitz_u * lift_norm * recovery_norm)


def truncation_error_bound(gain: float, hinf: float, hsv_tail) -> float:
    """Truncation bound ``2 * (gain * hinf + sum(hsv_tail))``."""
    tail = np.asarray(hsv_tail, float).reshape(-1)
    if gain < 0 or hinf < 0 or np.any(tail < 0):
        raise ValueError("bound inputs must be nonnegative")
    return float(2.0 * (gain * hinf + tail.sum()))


def input_to_state_norm(a, b, tol: float = 1e-6) -> float:
    """Peak gain from the input to the full state vector."""
    a = as_matrix(a, "a")
    return hinf_norm(LtiSystem(a, b, np.eye(a.shape[0])), tol=tol)


def output_embedding_gap(c, phi_norm: float) -> float:
    """Price of swapping the output matrix for the identity.

    The output matrix and the identity are padded with zero rows to a common
    height before taking the induced-norm difference, then scaled by the
    input-to-state peak gain.
    """
    c = as_matrix(c, "c")
    p, k = c.shape
    rows = max(p, k)
    c0 = np.zeros((rows, k))
    c0[:p, :] = c
    i0 = np.zeros((rows, k))
    i0[:k, :k] = np.eye(k)
    return spectral_norm(c0 - i0) * float(phi_norm)


def feedback_removal_gap(plant_norm: float, error_gain: float) -> float | None:
    """Gap bound for removing the error feedback loop; None past small gain.

    The loop gain is bounded by the product of the plant peak gain and the
    static error-block gain.  Below one, removing the loop costs at most
    ``plant_norm**2 * error_gain / (1 - loop)``; at or above one the bound
    does not exist.
    """
    if plant_norm < 0 or error_gain < 0:
        raise ValueError("norms must be nonnegative")
    loop = plant_norm * error_gain
    if loop >= 1.0:
        return None
    if error_gain == 0.0:
        return 0.0
    return float(plant_norm**2 * error_gain / (1.0 - loop))


@dataclass(frozen=True)
class FeedbackDecomposition:
    """Norms of the plant/error feedback pair for one realization."""

    gp_norm: float
    ge_gain: float
    loop_gain: float
    small_gain_ok: bool


def feedback_decomposition(a, b, error_factor: GsvdFactor | None) -> FeedbackDecomposition:
    """Split a realization into its plant and static error block.

    The plant norm is the identity-output peak gain of (a, b); the error
    gain is the largest singular value of ``pinv(b) @ D_err``, a true L2
    gain because the error lifting preserves the state norm pointwise.
    """
    gp = input_to_state_norm(a, b)
    if error_factor is None:
        ge = 0.0
    else:
        d_err = error_factor.u @ error_factor.sigma
        ge = spectral_norm(pinv(b) @ d_err)
    loop = gp * ge
    return FeedbackDecomposition(
        gp_norm=gp, ge_gain=ge, loop_gain=loop, small_gain_ok=bool(loop < 1.0)
    )


def is_control_affine(f: Callable, l: int, bal: BalancedRealization, seed: int = 0) -> bool:
    """Detect a state-independent balanced control term by sampling the probe
    ``pinv(R) @ (f(R z, u) - f(R z, 0))`` over balanced states ``z``.

    Per input, the probe runs on the stack of the origin and the first
    state, where a state-dependent term shows, and then on the stack of the
    other states; a state deviates when its distance from the origin's
    probe exceeds ``AFFINE_TOL`` times the running maximum of
    ``1 + ||probe||``."""
    rng = np.random.default_rng(seed)
    r_pinv = pinv(bal.r)

    def probe(zs, u):
        xs = row_products(bal.r, zs)
        us = np.broadcast_to(u, (len(zs), l))
        fields = np.asarray(f(xs, us), float) - np.asarray(f(xs, np.zeros((len(zs), l))), float)
        return row_products(r_pinv, fields)

    for u in (np.ones(l), rng.uniform(-AFFINE_BOX, AFFINE_BOX, size=l)):
        zs = rng.uniform(-AFFINE_BOX, AFFINE_BOX, size=(AFFINE_SAMPLES, bal.q))
        zs = np.vstack([np.zeros(bal.q), zs])
        base, scale = None, 1.0
        for part in (zs[:2], zs[2:]):
            fz = probe(part, u)
            base = fz[0] if base is None else base
            scales = np.maximum.accumulate(np.append(scale, 1.0 + row_norms(fz)))
            if np.any(row_norms(fz - base) > AFFINE_TOL * scales[1:]):
                return False
            scale = scales[-1]
    return True


def lift_sensitivity_norms(
    bal: BalancedRealization, u: np.ndarray, sigma: np.ndarray
) -> tuple[float, float]:
    """Operator norms ``(|Sigma^+ U^T T^{-1}|, |R^+|)`` entering the gain.

    ``u`` and ``sigma`` are the factors of the lifted control term.
    """
    lift = sigma_pinv(sigma) @ u.T @ bal.t_inv
    return spectral_norm(lift), spectral_norm(pinv(bal.r))


@dataclass(frozen=True)
class ErrorCertificate:
    """Itemized a-priori bound on the reduction error at one order.

    ``total_bound`` is None exactly when ``status`` is
    "small-gain-violated"; for exactly represented drifts the certificate
    takes the direct truncation path and the feedback/output terms are
    reported but not summed.
    """

    order: int
    control_gain: float
    hinf_output: float
    hinf_identity: float
    hankel_tail: float
    output_gap_full: float
    output_gap_reduced: float
    removal_gap_full: float | None
    removal_gap_reduced: float | None
    truncation_bound: float
    truncation_core: float
    total_bound: float | None
    status: str
    exact_representation: bool
    small_gain_full: bool
    small_gain_reduced: bool
    failing_loop: str | None
    full_loop_gain: float
    reduced_loop_gain: float
    ge_gain_full: float
    ge_gain_reduced: float
    provenance: dict = field(default_factory=dict)


def build_certificate(
    order: int,
    full: FeedbackDecomposition,
    reduced: FeedbackDecomposition,
    output_gap_full: float,
    output_gap_reduced: float,
    control_gain: float,
    hinf_output: float,
    hsv_tail,
    provenance: dict | None = None,
) -> ErrorCertificate:
    """Assemble the five-term certificate (or its exact-path collapse).

    When both error gains are exactly zero (no error block, see
    ``balance.factor_error``) there is no feedback to remove and the direct
    truncation bound applies; otherwise the total is the sum of the two
    output gaps, the two removal gaps, and the truncation core, provided
    both loops satisfy the small-gain condition.
    """
    tail = np.asarray(hsv_tail, float).reshape(-1)
    hankel_tail = float(tail.sum())
    hinf_identity = full.gp_norm
    trunc_bound = truncation_error_bound(control_gain, hinf_output, tail)
    trunc_core = truncation_error_bound(control_gain, hinf_identity, tail)
    removal_full = feedback_removal_gap(full.gp_norm, full.ge_gain)
    removal_reduced = feedback_removal_gap(reduced.gp_norm, reduced.ge_gain)

    exact = full.ge_gain == 0.0 and reduced.ge_gain == 0.0
    failing = None
    if exact:
        total = trunc_bound
        status = "finite"
    elif full.small_gain_ok and reduced.small_gain_ok:
        total = (
            output_gap_full
            + removal_full
            + trunc_core
            + removal_reduced
            + output_gap_reduced
        )
        status = "finite"
    else:
        total = None
        status = "small-gain-violated"
        bad = [
            name
            for name, ok in (("full", full.small_gain_ok), ("reduced", reduced.small_gain_ok))
            if not ok
        ]
        failing = " and ".join(bad)

    return ErrorCertificate(
        order=int(order),
        control_gain=float(control_gain),
        hinf_output=float(hinf_output),
        hinf_identity=float(hinf_identity),
        hankel_tail=hankel_tail,
        output_gap_full=float(output_gap_full),
        output_gap_reduced=float(output_gap_reduced),
        removal_gap_full=removal_full,
        removal_gap_reduced=removal_reduced,
        truncation_bound=trunc_bound,
        truncation_core=trunc_core,
        total_bound=total,
        status=status,
        exact_representation=exact,
        small_gain_full=full.small_gain_ok,
        small_gain_reduced=reduced.small_gain_ok,
        failing_loop=failing,
        full_loop_gain=full.loop_gain,
        reduced_loop_gain=reduced.loop_gain,
        ge_gain_full=full.ge_gain,
        ge_gain_reduced=reduced.ge_gain,
        provenance=provenance or {},
    )
