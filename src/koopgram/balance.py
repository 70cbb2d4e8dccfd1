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
from operator import mul
from typing import Callable, Sequence

import numpy as np

from . import gsvd
from .koopman import KoopmanModel
from .linalg import (
    LtiSystem, SpectrumError, is_hurwitz, list_field, row_products, solve_lyapunov,
)

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

    One instance serves every reduction order.  Both maps give the leading
    ``r`` rows of the lifted field ``D_phi(x) f(x, u) - A phi(x)`` at the
    recovered state ``x = R_r z``, pushed through the balancing transform.
    ``error_map(z)`` is that field at ``u = 0``, the representation error,
    which feeds the error factorizations; it takes the order ``r`` from
    ``len(z)``, and ``len(z) = q`` is the full balanced realization.  It also
    takes a ``(k, r)`` stack of states and returns the ``(k, r)`` stack of
    values, bit for bit the rows of ``k`` single calls, so that
    ``gsvd.estimate_gains`` samples it in one call: ``f`` takes the stack of
    recovered states, and ``R_r z``, ``phi``, the dictionary's ``jacobians``,
    every product and ``T(.)[:r]`` run once per stack.  ``f_reduced(zs, u)``
    takes a list of states, one per order, each a list of floats, and the
    input as a sequence of floats, and returns one field per state, each a
    list of floats, so one call per step serves every simulated order.  It
    simulates the truncated lifted realization, the object the certificates
    bound: ``A_bal[:r, :r] z`` plus the field at the current input.  The
    lifting is state-inclusive, ``phi = [x; phi_nl]`` and
    ``D_phi = [I; D_phi_nl]``, so with ``T_r = T[:r]`` that is, exactly,
    ``W_r [z; f(x, u); D_phi_nl(x) f(x, u); phi_nl(x)]`` with the folded
    matrix ``W_r = [K_r | M_r | N_r]``,
    ``K_r = A_bal[:r, :r] - (T_r A)[:, :n] R_r``, ``M_r = T_r[:, :n]`` and
    ``N_r = [T_r[:, n:], -(T_r A)[:, n:]]`` (no columns when ``q = n``), made
    once per order.  An evaluation runs in Python floats: ``x = R_r z`` as
    row sums, one call of ``f``'s list form (``linalg.list_field``), one
    ``Dictionary.lie_terms`` pass and the row sums of ``W_r``.  A plant
    declared as ``a x + b u`` (``ControlSystem.linear``, given as
    ``linear``) under a dictionary of the coordinates alone folds further,
    exactly, to the row sums of ``[K_r + M_r a R_r | M_r b]`` on ``[z; u]``,
    with no ``f`` call.  The fold follows the declaration, not the type of
    ``f``, so a wrapper of ``f`` that keeps its values keeps every bit of
    the result.  Each order is evaluated alone, so
    ``f_reduced([z1, z2], u)[1]`` equals ``f_reduced([z2], u)[0]`` bit for
    bit.  ``error_map`` keeps the unfolded numpy arithmetic: it is the
    certificates' sampled input, whose bits folding would move.
    """

    f_reduced: Callable[[Sequence[list], Sequence[float]], list[list]]
    error_map: Callable[[np.ndarray], np.ndarray]
    bal: BalancedRealization
    model: KoopmanModel


def balanced_nonlinear(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    input_dim: int,
    model: KoopmanModel,
    bal: BalancedRealization,
    linear: tuple[np.ndarray, np.ndarray] | None = None,
) -> BalancedNonlinear:
    """Construct the nonlinear evaluators in balanced and reduced coordinates.

    ``linear`` is ``(a, b)`` when ``f(x, u) = a x + b u``, as
    ``ControlSystem.linear`` declares it; the reduced orders then call
    ``f`` only under a dictionary with observables past the coordinates.
    """
    l, n = int(input_dim), bal.state_dim
    t, a = bal.t, model.a
    ta = t @ a
    dict_eval = model.dictionary.evaluate
    jacobians = model.dictionary.jacobians
    lie_terms = model.dictionary.lie_terms
    point = list_field(f)
    if bal.q > n:
        linear = None
    # per order r, as lists of rows: R_r = R[:, :r] and the folded field's
    # W_r = [K_r | M_r | N_r]; a linear plant a x + b u under the coordinates
    # alone folds further, to no R_r and W_r = [K_r + M_r a R_r | M_r b]
    plans = [None]
    for r in range(1, bal.q + 1):
        rr = bal.r[:, :r]
        k_r, m_r = bal.a_bal[:r, :r] - ta[:r, :n] @ rr, t[:r, :n]
        if linear is None:
            plans.append((rr.tolist(), np.hstack([k_r, m_r, t[:r, n:], -ta[:r, n:]]).tolist()))
        else:
            a_f, b_f = linear
            plans.append((None, np.hstack([k_r + m_r @ a_f @ rr, m_r @ b_f]).tolist()))

    def error_map(z):
        # one state or a stack of them: f, the Jacobians and the rest once
        # per stack, each row with the bits of a single state
        zs = np.asarray(z, float)
        order = zs.shape[-1]
        xs = row_products(bal.r[:, :order], np.atleast_2d(zs))
        drifts = np.asarray(f(xs, np.zeros((len(xs), l))), float)
        fields = row_products(jacobians(xs), drifts) - row_products(a, dict_eval(xs))
        out = row_products(t, fields)[:, :order]
        return out if zs.ndim == 2 else out[0]

    def f_reduced(zs, u):
        # Python floats throughout: on states of a few entries each numpy
        # call would cost more than its arithmetic
        out = []
        for z in zs:
            rr, w_r = plans[len(z)]
            if rr is None:
                w = [*z, *u]
            else:
                x = [sum(map(mul, row, z)) for row in rr]
                fx = point(x, u)
                w = [*z, *fx, *lie_terms(x, fx)]
            out.append([sum(map(mul, row, w)) for row in w_r])
        return out

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
