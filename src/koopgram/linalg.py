"""Dense linear algebra and integration primitives shared by the whole toolkit.

Everything here operates on plain numpy arrays.  All public entry points
reject non-finite input, and every returned value is finite.  Matrices are
immutable by convention: no function mutates its arguments.
"""

from __future__ import annotations

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
    "pinv",
    "spectral_norm",
    "is_hurwitz",
    "solve_lyapunov",
    "hinf_norm",
    "integrate_ode",
]

_EPS = np.finfo(float).eps


class SpectrumError(ValueError):
    """A matrix fails a required spectral condition (e.g. not Hurwitz)."""


class StiffnessError(RuntimeError):
    """The adaptive integrator underflowed its step size."""


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


def _imaginary_axis_crossings(ham: np.ndarray) -> bool:
    """True when the Hamiltonian has an eigenvalue on the imaginary axis."""
    eig = np.linalg.eigvals(ham)
    scale = max(1.0, float(np.max(np.abs(eig))))
    return bool(np.min(np.abs(eig.real)) <= 1e-9 * scale)


def _sweep_lower_bound(a, b, c, n_points: int = 512) -> float:
    """Coarse frequency-sweep lower bound on the peak gain."""
    eig = np.linalg.eigvals(a)
    mags = np.abs(eig)
    lo = max(np.min(mags) * 1e-3, 1e-8)
    hi = max(np.max(mags) * 1e3, 1.0)
    freqs = np.concatenate(
        [[0.0], np.geomspace(lo, hi, n_points), np.abs(eig.imag[eig.imag > 0])]
    )
    n, l = b.shape
    # an explicit (k, n, l) right-hand side is read as a stack of matrices
    # by every numpy version, not as a stack of vectors
    rhs = np.broadcast_to(b, (freqs.size, n, l))
    g = c @ np.linalg.solve(1j * freqs[:, None, None] * np.eye(n) - a, rhs)
    return float(np.max(np.linalg.norm(g, 2, axis=(-2, -1))))


def hinf_norm(sys: LtiSystem, tol: float = 1e-6) -> float:
    """H-infinity norm of a stable strictly proper system.

    Computes ``sup_w sigma_max(C (jwI - A)^{-1} B)`` by bisection on the
    imaginary-axis eigenvalue test of the associated Hamiltonian matrix,
    initialized from a coarse frequency sweep.  The result is accurate to
    relative ``tol``.
    """
    a, b, c = sys.a, sys.b, sys.c
    _require_hurwitz(a, "hinf_norm")
    if spectral_norm(b) == 0.0 or spectral_norm(c) == 0.0:
        return 0.0

    lo = _sweep_lower_bound(a, b, c)
    if lo <= 0.0:
        return 0.0

    bbt = b @ b.T
    ctc = c.T @ c

    def has_crossing(gamma: float) -> bool:
        ham = np.block(
            [[a, bbt / gamma], [-ctc / gamma, -a.T]]
        )
        return _imaginary_axis_crossings(ham)

    hi = 2.0 * lo
    for _ in range(200):
        if not has_crossing(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("hinf_norm: failed to bracket the peak gain")

    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if has_crossing(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    x0,
    t_span: tuple[float, float],
    tol: float = 1e-8,
    t_eval=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``dx/dt = field(t, x)`` with an embedded 4(5) adaptive pair.

    Returns ``(t, x)`` with ``x`` of shape (len(t), dim), sampled at
    ``t_eval`` when given (dense output), otherwise at the solver's own
    accepted steps.  Local error per step is controlled to ``tol``.
    """
    x0 = as_vector(x0, "x0")
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(tf)) or tf <= t0:
        raise ValueError(f"bad integration window [{t0}, {tf}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    result = scipy.integrate.solve_ivp(
        field,
        (t0, tf),
        x0,
        method="RK45",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
        dense_output=False,
    )
    if not result.success:
        raise StiffnessError(f"integration failed: {result.message}")
    y = result.y.T
    if not np.all(np.isfinite(y)):
        raise StiffnessError("integration produced non-finite states")
    return result.t, y
