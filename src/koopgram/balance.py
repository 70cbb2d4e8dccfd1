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
from .linalg import LtiSystem, SpectrumError, as_vector, is_hurwitz, pinv, solve_lyapunov

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

    def to_dict(self) -> dict:
        return {
            "state_dim": int(self.state_dim),
            "q": int(self.q),
            "hsv": [float(v) for v in self.hsv],
            "t": self.t.tolist(),
            "t_inv": self.t_inv.tolist(),
            "a_bal": self.a_bal.tolist(),
            "b_bal": self.b_bal.tolist(),
            "c_bal": self.c_bal.tolist(),
            "r": self.r.tolist(),
            "xc": self.xc.tolist(),
            "yo": self.yo.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BalancedRealization":
        return cls(
            t=np.asarray(data["t"], float),
            t_inv=np.asarray(data["t_inv"], float),
            hsv=np.asarray(data["hsv"], float),
            a_bal=np.asarray(data["a_bal"], float),
            b_bal=np.asarray(data["b_bal"], float),
            c_bal=np.asarray(data["c_bal"], float),
            r=np.asarray(data["r"], float),
            xc=np.asarray(data["xc"], float),
            yo=np.asarray(data["yo"], float),
            state_dim=int(data["state_dim"]),
        )


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
    r_r: np.ndarray
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
        r_r=bal.t_inv[: bal.state_dim, :r],
        hsv_tail=bal.hsv[r:],
    )


@dataclass(frozen=True)
class BalancedNonlinear:
    """Nonlinear dynamics carried into balanced and reduced coordinates.

    One instance serves every reduction order: the reduced evaluators take
    the order ``r`` from the length of ``z_r``.  ``f_u`` maps the control
    term at the recovered state ``R z`` back through the recovery
    pseudoinverse; it is what the control-affinity detection samples.
    ``error_map`` and ``error_map_reduced`` push the representation error
    ``D_phi(x) f(x, 0) - A phi(x)`` at the recovered state through the
    balancing transform and feed the error factorizations;
    ``error_map_reduced(z_r)`` is the leading ``r`` rows at ``x = R_r z_r``.
    ``f_reduced`` simulates the truncated lifted realization, which is the
    object the certificates actually bound; its drift is the truncated
    balanced matrix plus the truncated lifted terms evaluated at the
    recovered state, so an exactly represented linear plant reduces to
    classical balanced truncation.
    """

    f_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f_reduced: Callable[[np.ndarray, np.ndarray], np.ndarray]
    error_map: Callable[[np.ndarray], np.ndarray]
    error_map_reduced: Callable[[np.ndarray], np.ndarray]
    bal: BalancedRealization
    input_dim: int
    model: KoopmanModel


def balanced_nonlinear(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    input_dim: int,
    model: KoopmanModel,
    bal: BalancedRealization,
) -> BalancedNonlinear:
    """Construct the nonlinear evaluators in balanced and reduced coordinates."""
    l = int(input_dim)
    zero_u = np.zeros(l)
    r_mat = bal.r
    r_pinv = pinv(r_mat)
    t = bal.t
    dict_eval = model.dictionary.evaluate
    jac = model.dictionary.jacobian

    def f0_state(x: np.ndarray) -> np.ndarray:
        return np.asarray(f(x, zero_u), float)

    def residual(x):
        phi = as_vector(dict_eval(x), "lifted state")
        return np.asarray(jac(x), float) @ f0_state(x) - model.a @ phi

    def f_u(z, u):
        x = r_mat @ z
        return r_pinv @ (np.asarray(f(x, u), float) - f0_state(x))

    def error_map(z):
        return t @ residual(r_mat @ z)

    def error_map_reduced(z_r):
        order = len(z_r)
        return (t @ residual(r_mat[:, :order] @ z_r))[:order]

    def f_reduced(z_r, u):
        # truncated lifted realization: balanced drift block plus the
        # truncated lifted control and error terms at the recovered state
        order = len(z_r)
        x = r_mat[:, :order] @ z_r
        lifted = t @ (
            np.asarray(jac(x), float) @ np.asarray(f(x, u), float)
            - model.a @ np.asarray(dict_eval(x), float)
        )
        return bal.a_bal[:order, :order] @ z_r + lifted[:order]

    return BalancedNonlinear(
        f_u=f_u,
        f_reduced=f_reduced,
        error_map=error_map,
        error_map_reduced=error_map_reduced,
        bal=bal,
        input_dim=l,
        model=model,
    )


def factor_error(
    bn: BalancedNonlinear,
    reduced: ReducedRealization | None = None,
    slack: float = 1.05,
    sample_budget: int = 1000,
    seed: int = 0,
    box: float = 5.0,
) -> gsvd.GsvdFactor:
    """Factor the balanced representation error, or its truncation to ``reduced``.

    Exactness is decided by the model's held-out residual gain: at or below
    ``EXACT_RESIDUAL_TOL`` the residual is regression rounding, not
    structure, and the error block is identically zero.  Otherwise
    per-coordinate gains are sampled over the balanced (or reduced)
    coordinates.
    """
    dim = bn.bal.q if reduced is None else reduced.order

    if bn.model.residual_gain <= EXACT_RESIDUAL_TOL:
        zero = lambda z: np.zeros(dim)
        gains = gsvd.GainProfile(np.zeros(dim), source="sampled_estimate", sample_count=0)
        return gsvd.decompose(zero, dim, gains, slack=slack)

    err = bn.error_map if reduced is None else bn.error_map_reduced
    gains = gsvd.estimate_gains(err, dim, sample_budget=sample_budget, seed=seed, box=box)
    return gsvd.decompose(err, dim, gains, slack=slack)
