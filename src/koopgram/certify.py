"""A-priori reduction error certificates for the lifted realization.

The total H-infinity error of reducing a system is priced as a sum of
independently computable terms: swapping the output matrix for the identity
(an embedding gap times an input-to-state norm), removing the
representation-error feedback loop (a small-gain gap), and truncating the
balanced realization (a Lipschitz-weighted norm plus the Hankel tail).
When either feedback loop reaches unit gain the certificate is marked
unbounded rather than reported as a huge number, so downstream reporting can
distinguish "violated" from "large".

The control term prices evaluating the lifted control term
``g(x, u) = D_phi(x) (f(x, u) - f(x, 0))`` at the reduced state's recovery
instead of the full state, so it is 0 when ``g`` is free of ``x``; the
certify stage decides that from the declaration, term by term.  If every
``f_i`` is a sum of terms that each read only states or only inputs, then
``f(x, u) - f(x, 0) = w(u)``, with ``w_j = 0`` where ``f_j`` reads no
input; a term such as ``cos(x1) tanh(u1)`` breaks that.  The coordinate
rows of ``D_phi`` are constant, so those rows of ``g`` are ``w(u)``.  An
observable ``phi_k`` past the coordinates gives
``sum_j dphi_k/dx_j(x) w_j(u)``, which depends on ``x`` as soon as
``phi_k`` has a nonzero exponent on a driven ``x_j``.  So separability of
``f`` is not enough: ``f = (-x1 + 3 tanh u1, -2 x2 + x1^2)`` is separable,
but ``phi = x1^2`` lifts it to the row ``6 x1 tanh u1``.  The test is
sufficient, not necessary: a wrong "state-dependent" only costs tightness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balance import BalancedRealization
from .expr import control_reads
from .gsvd import GsvdFactor, sigma_pinv
from .linalg import LtiSystem, as_matrix, hinf_norm, pinv, spectral_norm

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


def is_control_affine(spec: dict, exponents) -> bool:
    """Whether the lifted control term is free of the state, read from the
    system declaration ``spec`` and the dictionary's monomial ``exponents``
    without calling ``f``; the module docstring derives the rule."""
    separable, driven = control_reads(spec)
    return separable and not any(p and d for e in exponents[len(driven):] for p, d in zip(e, driven))


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
