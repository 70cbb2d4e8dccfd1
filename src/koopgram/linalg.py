"""Dense linear algebra and integration primitives shared by the whole toolkit.

Everything here operates on plain numpy arrays.  All public entry points
reject non-finite input, and every returned value is finite.  Matrices are
immutable by convention: no function mutates its arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.linalg

__all__ = [
    "LtiSystem",
    "SpectrumError",
    "StiffnessError",
    "as_matrix",
    "as_vector",
    "row_norms",
    "row_products",
    "int_power",
    "pinv",
    "spectral_norm",
    "is_hurwitz",
    "solve_lyapunov",
    "hinf_norm",
    "integrate_ode",
]

_EPS = np.finfo(float).eps
# smallest ``integrate_ode`` tolerance: LSODA refuses tighter ones
MIN_ODE_TOL = 100 * _EPS
# LSODA's step budget between two consecutive output times; x' = x^2 from
# x(0) = 1 spends it near the pole at t = 1 before any state overflows
_MXSTEP = 5000
# odeint's messages for a clean return; it reports failures as other messages
_ODEINT_DONE = ("Integration successful.", "Nothing was done; the integration time was 0.")


class SpectrumError(ValueError):
    """A matrix fails a required spectral condition (e.g. not Hurwitz)."""


class StiffnessError(RuntimeError):
    """The ODE integrator failed or met a non-finite field value or state."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_norms(vs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a stack, each with the bits of
    ``np.linalg.norm`` of that row alone (``norm(axis=-1)`` sums in another
    order and changes the last bit of some rows)."""
    return np.sqrt(np.vecdot(vs, vs))


def row_products(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The rows ``m @ v_i`` of a ``(k, n)`` stack ``vs``; ``m`` is one matrix
    or a ``(k, p, n)`` stack of them.  The stacked matmul runs one
    matrix-vector product per row, so each row has the bits of the single
    product (``einsum`` and ``vs @ m.T`` change the last bit of some)."""
    return (m @ vs[..., None])[..., 0]


def int_power(x, k: int):
    """``x`` to the integer power ``k >= 1`` as the product ``x * x * ... * x``
    taken left to right.  Each step is one correctly rounded multiplication,
    so a Python float and every entry of a numpy array get the same bits, and
    a square is the correctly rounded ``x * x`` (``math.pow`` and numpy's
    power differ from these products in the last bit of some values).  An
    overflow gives inf, as float multiplication does; numpy warns or raises
    on it under its error state."""
    out = x
    while k > 1:  # cheaper than a range loop on one float
        out = out * x
        k -= 1
    return out


@dataclass(frozen=True)
class LtiSystem:
    """Strictly proper continuous-time realization (A, B, C); no direct term."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b")
        c = as_matrix(self.c, "c")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got {a.shape}")
        q = a.shape[0]
        if b.shape[0] != q:
            raise ValueError(f"b must have {q} rows, got {b.shape}")
        if c.shape[1] != q:
            raise ValueError(f"c must have {q} columns, got {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def pinv(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``tol * sigma_max`` are treated as zero.  The
    default tol is ``max(rows, cols) * machine_eps``, the usual
    rank-revealing cutoff.
    """
    a = as_matrix(m)
    if tol is None:
        tol = max(a.shape) * _EPS
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return np.linalg.pinv(a, rcond=tol)


def spectral_norm(m) -> float:
    """Largest singular value (the 2->2 induced norm)."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def is_hurwitz(a, margin: float = 0.0) -> bool:
    """True when every eigenvalue of ``a`` has real part < -margin."""
    eig = np.linalg.eigvals(as_matrix(a, "a"))
    return bool(np.max(eig.real) < -margin)


def _require_hurwitz(a: np.ndarray, context: str) -> None:
    if not is_hurwitz(a):
        eig = np.linalg.eigvals(a)
        worst = eig[np.argmax(eig.real)]
        raise SpectrumError(
            f"{context}: matrix is not Hurwitz (eigenvalue {worst:.6g} "
            "has nonnegative real part)"
        )


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve A X + X A^T + Q = 0 for symmetric X.

    ``a`` must be Hurwitz and ``q`` symmetric.  Uses the Schur-based
    Bartels-Stewart solver; the result is symmetrized before returning.
    """
    a = as_matrix(a, "a")
    qm = as_matrix(q, "q")
    if a.shape[0] != a.shape[1] or qm.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, q {qm.shape}")
    if not np.allclose(qm, qm.T, atol=1e-10 * (1.0 + np.abs(qm).max())):
        raise ValueError("q must be symmetric")
    _require_hurwitz(a, "solve_lyapunov")
    x = scipy.linalg.solve_continuous_lyapunov(a, -qm)
    return 0.5 * (x + x.T)


def _imaginary_axis_crossings(ham: np.ndarray) -> np.ndarray:
    """Sorted imaginary parts of the Hamiltonian's imaginary-axis
    eigenvalues; they come in pairs ``+-w``, so empty means no crossing."""
    eig = np.linalg.eigvals(ham)
    scale = max(1.0, float(np.max(np.abs(eig))))
    return np.sort(eig.imag[np.abs(eig.real) <= 1e-9 * scale])


def _peak_gain(a, b, c, freqs: np.ndarray) -> float:
    """Largest ``sigma_max(C (jwI - A)^{-1} B)`` over the frequencies
    ``freqs``; 0.0 when there are none."""
    n, l = b.shape
    # an explicit (k, n, l) right-hand side is read as a stack of matrices
    # by every numpy version, not as a stack of vectors
    rhs = np.broadcast_to(b, (freqs.size, n, l))
    g = c @ np.linalg.solve(1j * freqs[:, None, None] * np.eye(n) - a, rhs)
    return float(np.max(np.linalg.norm(g, 2, axis=(-2, -1)), initial=0.0))


# level-set steps before hinf_norm gives up; a peak is reached in a few, but
# a pole within rounding of the imaginary axis shows a crossing at every level
_HINF_MAX_STEPS = 100


def hinf_norm(sys: LtiSystem, tol: float = 1e-6) -> float:
    """H-infinity norm of a stable strictly proper system.

    Bounds ``||G||_inf = sup_w sigma_max(C (jwI - A)^{-1} B)`` by the
    quadratically convergent level-set iteration of S. Boyd and
    V. Balakrishnan (1990) and N. A. Bruinsma and M. Steinbuch, "A fast
    algorithm to compute the H-infinity-norm of a transfer function matrix"
    (Systems & Control Letters, 1990).  A lower bound ``lo`` starts at the
    largest gain at ``w = 0`` and at each pole's modulus.  Each step tests
    ``gamma = (1 + 2 tol) lo``: while the Hamiltonian
    ``[[A, BB^T/gamma], [-C^TC/gamma, -A^T]]`` has imaginary-axis
    eigenvalues ``jw_i``, the gain reaches ``gamma`` somewhere, and ``lo``
    rises to the largest gain at the midpoints of consecutive ``w_i`` (or
    to ``gamma`` when none is larger).  The first ``gamma`` without a
    crossing is returned, so ``||G||_inf <= gamma <= (1 + 2 tol) ||G||_inf``.
    Raises ``RuntimeError`` when no level is free of crossings within a
    fixed number of steps.
    """
    a, b, c = sys.a, sys.b, sys.c
    _require_hurwitz(a, "hinf_norm")
    if spectral_norm(b) == 0.0 or spectral_norm(c) == 0.0:
        return 0.0

    lo = _peak_gain(a, b, c, np.concatenate([[0.0], np.abs(np.linalg.eigvals(a))]))
    if lo <= 0.0:
        return 0.0

    bbt = b @ b.T
    ctc = c.T @ c
    # the diagonal blocks of the Hamiltonian do not depend on gamma, so each
    # step refills only the other two
    q = a.shape[0]
    ham = np.empty((2 * q, 2 * q))
    ham[:q, :q] = a
    ham[q:, q:] = -a.T
    for _ in range(_HINF_MAX_STEPS):
        gamma = (1.0 + 2.0 * tol) * lo
        ham[:q, q:] = bbt / gamma
        ham[q:, :q] = -ctc / gamma
        freqs = _imaginary_axis_crossings(ham)
        if freqs.size == 0:
            return gamma
        mid = _peak_gain(a, b, c, np.abs(0.5 * (freqs[1:] + freqs[:-1])))
        lo = mid if mid > lo else gamma
    raise RuntimeError("hinf_norm: failed to bracket the peak gain")


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray], x0, t_eval, tol: float,
    *, block: int | None = None,
) -> np.ndarray:
    """Integrate ``dx/dt = field(t, x)`` with ODEPACK's LSODA over ``t_eval``.

    The solve starts from ``x0`` at ``t_eval[0]`` and ends at ``t_eval[-1]``;
    ``t_eval`` must increase strictly.  Returns the states at ``t_eval``, of
    shape (len(t_eval), dim).  LSODA switches between Adams (nonstiff) and
    BDF (stiff) formulas as the problem demands.  A step is
    accepted when the weighted max norm of its local error is below 1, each
    component's error scaled by ``tol * (1e-3 + |x_i|)``: the test holds
    component by component, so appending components to a system does not
    loosen the control of the others.  ``tol`` must be finite and at least
    ``MIN_ODE_TOL``; LSODA refuses smaller tolerances.  ``block`` says that
    the state is a stack of ``block``-sized pieces whose fields do not touch
    one another, so the field's Jacobian is block diagonal: LSODA's stiff
    (BDF) steps then form and factor it as a band of half-width
    ``block - 1``, from ``2 * block - 1`` field calls, instead of a dense
    matrix from one call per component.  A solver failure
    (step budget spent, repeated error-test or convergence failures), a
    non-finite field value and a non-finite state all raise
    ``StiffnessError``.
    """
    x0 = as_vector(x0, "x0")
    if not (np.isfinite(tol) and tol >= MIN_ODE_TOL):
        raise ValueError(f"tol must be finite and at least {MIN_ODE_TOL:.3g}, got {tol!r}")
    t_eval = np.asarray(t_eval, dtype=float).reshape(-1)
    if t_eval.size == 0 or not (np.all(np.isfinite(t_eval)) and np.all(np.diff(t_eval) > 0)):
        raise ValueError("t_eval must increase strictly through finite times")

    def checked(t, x):
        dx = field(t, x)
        if not np.isfinite(dx).all():
            raise StiffnessError(f"integration failed: non-finite field value at t = {t:g}")
        return dx

    with warnings.catch_warnings():
        # a failure comes back in info["message"] too; raise it, do not print
        # it (the filters are process-wide; koopgram integrates on one thread)
        warnings.simplefilter("ignore", scipy.integrate.ODEintWarning)
        band = {} if block is None else {"ml": block - 1, "mu": block - 1}
        y, info = scipy.integrate.odeint(
            checked, x0, t_eval, rtol=tol, atol=tol * 1e-3,
            mxstep=_MXSTEP, full_output=True, tfirst=True, **band,
        )
    if info["message"] not in _ODEINT_DONE:
        raise StiffnessError(f"integration failed: {info['message']}")
    if not np.all(np.isfinite(y)):
        raise StiffnessError("integration produced non-finite states")
    return y
