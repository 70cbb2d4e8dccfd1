"""Gramian-based balancing and truncation of the lifted realization.

Balancing makes the controllability and observability Gramians equal and
diagonal; the diagonal (the Hankel singular values) prices how much each
lifted coordinate contributes to the input-output map, and trailing
coordinates are discarded.  Because the lifting is state-inclusive, the
original state is recovered linearly from the balanced coordinates, which
is what lets the nonlinear dynamics be carried into (and back out of) the
balanced and truncated coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gsvd
from .koopman import KoopmanModel
from .linalg import LtiSystem, SpectrumError, is_hurwitz, solve_lyapunov

__all__ = [
    "MinimalityError",
    "BalancedRealization",
    "ReducedRealization",
    "BalancedNonlinear",
    "gramians",
    "balance",
    "truncate",
    "balanced_nonlinear",
    "factor_error",
]


# a held-out residual gain at or below this is regression rounding, not
# structure: the representation error block is identically zero
EXACT_RESIDUAL_TOL = 1e-8


class MinimalityError(ValueError):
    """The realization has numerically uncontrollable or unobservable modes."""


def gramians(sys: LtiSystem) -> tuple[np.ndarray, np.ndarray]:
    """Controllability and observability Gramians of a stable realization."""
    xc = solve_lyapunov(sys.a, sys.b @ sys.b.T)
    yo = solve_lyapunov(sys.a.T, sys.c.T @ sys.c)
    return xc, yo


@dataclass(frozen=True)
class BalancedRealization:
    """Balancing transform, Hankel singular values, and balanced matrices.

    ``t`` maps lifted coordinates to balanced ones; ``r`` recovers the
    original state from balanced coordinates (state-inclusive lifting).
    """

    t: np.ndarray
    t_inv: np.ndarray
    hsv: np.ndarray
    a_bal: np.ndarray
    b_bal: np.ndarray
    c_bal: np.ndarray
    r: np.ndarray
    xc: np.ndarray
    yo: np.ndarray
    state_dim: int

    @property
    def q(self) -> int:
        return self.t.shape[0]


def _check_minimal(gram: np.ndarray, label: str) -> None:
    eig = np.linalg.eigvalsh(gram)
    cutoff = 1e-10 * max(eig[-1], 0.0)
    deficient = int(np.sum(eig <= cutoff))
    if deficient > 0:
        raise MinimalityError(
            f"realization is not minimal: {label} Gramian has a "
            f"{deficient}-dimensional numerically deficient subspace"
        )


def balance(sys: LtiSystem, state_dim: int | None = None) -> BalancedRealization:
    """Square-root balancing via Cholesky factors and an SVD of their product.

    Near-deficient realizations are rejected rather than regularized, since
    silently regularizing would change the certified truncation bounds.
    """
    xc, yo = gramians(sys)
    _check_minimal(xc, "controllability")
    _check_minimal(yo, "observability")
    lc = np.linalg.cholesky(xc)
    lo = np.linalg.cholesky(yo)
    _, s, vt = np.linalg.svd(lo.T @ lc)
    sqrt_s = np.sqrt(s)
    t = (sqrt_s[:, None]) * np.linalg.solve(lc.T, vt.T).T
    t_inv = lc @ vt.T / sqrt_s[None, :]
    n = sys.order if state_dim is None else int(state_dim)
    if not 1 <= n <= sys.order:
        raise ValueError(f"state_dim must lie in [1, {sys.order}]")
    return BalancedRealization(
        t=t,
        t_inv=t_inv,
        hsv=s,
        a_bal=t @ sys.a @ t_inv,
        b_bal=t @ sys.b,
        c_bal=sys.c @ t_inv,
        r=t_inv[:n, :],
        xc=xc,
        yo=yo,
        state_dim=n,
    )


@dataclass(frozen=True)
class ReducedRealization:
    """Leading blocks of the balanced realization plus the recovery map."""

    order: int
    a_r: np.ndarray
    b_r: np.ndarray
    c_r: np.ndarray
    hsv_tail: np.ndarray

    @property
    def hankel_tail(self) -> float:
        return float(np.sum(self.hsv_tail))


def truncate(bal: BalancedRealization, r: int) -> ReducedRealization:
    """Keep the r most energetic balanced coordinates."""
    q = bal.q
    if not 1 <= r <= q:
        raise ValueError(f"reduction order must lie in [1, {q}], got {r}")
    a_r = bal.a_bal[:r, :r]
    if not is_hurwitz(a_r):
        raise SpectrumError(
            f"truncated dynamics at order {r} are not Hurwitz; "
            "the realization is too close to a repeated Hankel value"
        )
    return ReducedRealization(
        order=r,
        a_r=a_r,
        b_r=bal.b_bal[:r, :],
        c_r=bal.c_bal[:, :r],
        hsv_tail=bal.hsv[r:],
    )


@dataclass(frozen=True)
class BalancedNonlinear:
    """Nonlinear dynamics carried into balanced and reduced coordinates.

    One instance serves every reduction order: ``f_reduced`` and
    ``error_map`` take the order ``r`` from the length of their ``z``, and
    ``len(z) = q`` is the full balanced realization.  Both evaluate the
    lifted field ``D_phi(x) f(x, u) - A phi(x)`` at the recovered state
    ``x = R_r z``, push it through the balancing transform and keep its
    leading ``r`` rows.  ``error_map(z)`` is that field at ``u = 0``, the
    representation error, which feeds the error factorizations.
    ``f_reduced`` simulates the truncated lifted realization, which is the
    object the certificates actually bound: the truncated balanced drift
    matrix plus the field at the current input.
    """

    f_reduced: Callable[[np.ndarray, np.ndarray], np.ndarray]
    error_map: Callable[[np.ndarray], np.ndarray]
    bal: BalancedRealization
    model: KoopmanModel


def balanced_nonlinear(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    input_dim: int,
    model: KoopmanModel,
    bal: BalancedRealization,
) -> BalancedNonlinear:
    """Construct the nonlinear evaluators in balanced and reduced coordinates."""
    zero_u = np.zeros(int(input_dim))
    r_mat = bal.r
    t = bal.t
    a_bal = bal.a_bal
    dict_eval = model.dictionary.evaluate
    jac = model.dictionary.jacobian

    def lifted(x, u):
        return (
            np.asarray(jac(x), float) @ np.asarray(f(x, u), float)
            - model.a @ np.asarray(dict_eval(x), float)
        )

    def error_map(z):
        order = len(z)
        return (t @ lifted(r_mat[:, :order] @ z, zero_u))[:order]

    def f_reduced(z_r, u):
        order = len(z_r)
        return a_bal[:order, :order] @ z_r + (t @ lifted(r_mat[:, :order] @ z_r, u))[:order]

    return BalancedNonlinear(f_reduced=f_reduced, error_map=error_map, bal=bal, model=model)


def factor_error(
    bn: BalancedNonlinear,
    reduced: ReducedRealization | None = None,
    slack: float = 1.05,
    sample_budget: int = 1000,
    seed: int = 0,
    box: float = 5.0,
) -> gsvd.GsvdFactor | None:
    """Factor the balanced representation error, or its truncation to ``reduced``.

    ``reduced`` only picks the dimension: ``bn.error_map`` is factored on
    all ``q`` balanced coordinates for ``None``, on the leading
    ``reduced.order`` ones otherwise.  Exactness is decided by the model's
    held-out residual gain: at or below ``EXACT_RESIDUAL_TOL`` the residual
    is regression rounding, not structure, and there is no error block, so
    the result is ``None`` (``certify.feedback_decomposition`` reads it as
    error gain 0).  Otherwise per-coordinate gains are sampled over those
    coordinates.
    """
    if bn.model.residual_gain <= EXACT_RESIDUAL_TOL:
        return None
    dim = bn.bal.q if reduced is None else reduced.order
    gains = gsvd.estimate_gains(bn.error_map, dim, sample_budget=sample_budget, seed=seed, box=box)
    return gsvd.decompose(bn.error_map, dim, gains, slack=slack)
