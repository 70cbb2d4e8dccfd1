"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: the Lyapunov oracle
integrates the Gramian quadrature directly, the H-infinity oracle is a dense
frequency sweep (evaluated in batched chunks of frequencies, with no
Hamiltonian or bisection step), the coarse-sweep oracle walks the library's
sweep grid one frequency at a time, and the ODE oracle is a fixed-step
classical Runge-Kutta scheme.  Nothing here imports from ``koopgram``.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.linalg

# frequencies per batched solve in ``hinf_by_sweep``
_SWEEP_CHUNK = 4096


def lyapunov_by_quadrature(a: np.ndarray, q: np.ndarray, n_nodes: int = 96001) -> np.ndarray:
    """X = integral of e^{At} Q e^{A^T t} dt, by Simpson on a decaying window.

    The window is chosen so the neglected tail is far below the quadrature
    resolution.  Matrix exponential powers are built blockwise
    (e^{A t_k} = F_i E_j with k = i*m + j) so the node count stays cheap.
    """
    decay = -np.max(np.linalg.eigvals(a).real)
    assert decay > 0
    horizon = 35.0 / decay
    ts = np.linspace(0.0, horizon, n_nodes)
    step = scipy.linalg.expm(a * (ts[1] - ts[0]))
    d = a.shape[0]
    m = int(np.ceil(np.sqrt(n_nodes)))
    ej = np.empty((m, d, d))
    ej[0] = np.eye(d)
    for j in range(1, m):
        ej[j] = step @ ej[j - 1]
    big_step = step @ ej[-1]
    n_blocks = int(np.ceil(n_nodes / m))
    fi = np.empty((n_blocks, d, d))
    fi[0] = np.eye(d)
    for i in range(1, n_blocks):
        fi[i] = big_step @ fi[i - 1]
    inner = np.einsum("jab,bc,jdc->jad", ej, q, ej)
    terms = np.einsum("iab,jbc,idc->ijad", fi, inner, fi).reshape(-1, d, d)[:n_nodes]
    return scipy.integrate.simpson(terms, x=ts, axis=0)


def hinf_by_sweep(a, b, c, n_points: int = 100_000) -> float:
    """Dense log-spaced frequency sweep of the peak transfer gain.

    The grid is ``[0]`` followed by ``n_points`` log-spaced frequencies
    spanning three decades beyond the slowest and fastest poles.  It is
    evaluated in chunks of ``_SWEEP_CHUNK`` frequencies: one batched solve of
    the stacked ``(k, n, n)`` matrices ``jwI - A`` per chunk, then the
    largest singular value of each ``C (jwI - A)^{-1} B``.  The result is the
    peak over the whole grid.
    """
    eig = np.linalg.eigvals(a)
    mags = np.abs(eig)
    lo = max(np.min(mags) * 1e-3, 1e-6)
    hi = max(np.max(mags) * 1e3, 1.0)
    freqs = np.concatenate([[0.0], np.geomspace(lo, hi, n_points)])
    n, l = np.shape(b)
    eye = np.eye(n)
    best = 0.0
    for start in range(0, freqs.size, _SWEEP_CHUNK):
        w = freqs[start : start + _SWEEP_CHUNK]
        # an explicit (k, n, l) right-hand side is read as a stack of
        # matrices by every numpy version, not as a stack of vectors
        rhs = np.broadcast_to(b, (w.size, n, l))
        g = c @ np.linalg.solve(1j * w[:, None, None] * eye - a, rhs)
        best = max(best, float(np.max(np.linalg.norm(g, 2, axis=(-2, -1)))))
    return best


def sweep_peak_by_loop(a, b, c, n_points: int = 512) -> float:
    """Peak transfer gain over the coarse sweep grid, one frequency at a time.

    The grid is the one the library's H-infinity initialization sweeps:
    ``[0]``, ``n_points`` log-spaced frequencies spanning three decades
    beyond the slowest and fastest poles, and the positive imaginary parts
    of the poles.  Each frequency takes its own solve and 2-norm.
    """
    eig = np.linalg.eigvals(a)
    mags = np.abs(eig)
    lo = max(np.min(mags) * 1e-3, 1e-8)
    hi = max(np.max(mags) * 1e3, 1.0)
    freqs = np.concatenate(
        [[0.0], np.geomspace(lo, hi, n_points), np.abs(eig.imag[eig.imag > 0])]
    )
    eye = np.eye(a.shape[0])
    best = 0.0
    for w in freqs:
        g = c @ np.linalg.solve(1j * w * eye - a, b)
        best = max(best, float(np.linalg.norm(g, 2)))
    return best


def rk4_fixed_step(field, x0, t0: float, tf: float, n_steps: int) -> np.ndarray:
    """Classical fixed-step RK4; returns the final state."""
    x = np.asarray(x0, dtype=float).copy()
    h = (tf - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = field(t, x)
        k2 = field(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = field(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def random_stable_system(rng, n: int, l: int, p: int, ratio_cap: float = 6.0):
    """Random Hurwitz (A, B, C) with moderately damped resonances."""
    lam = []
    while len(lam) < n - 1:
        re = rng.uniform(0.5, 2.0)
        im = rng.uniform(0.0, ratio_cap * re)
        lam.append((-re, im))
    blocks = []
    count = 0
    for re, im in lam:
        if count + 2 <= n and im > 0.05:
            blocks.append(np.array([[re, im], [-im, re]]))
            count += 2
        else:
            blocks.append(np.array([[re]]))
            count += 1
        if count >= n:
            break
    while count < n:
        blocks.append(np.array([[-rng.uniform(0.5, 2.0)]]))
        count += 1
    a0 = scipy.linalg.block_diag(*blocks)[:n, :n]
    qmat, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = qmat @ a0 @ qmat.T
    b = rng.normal(size=(n, l))
    c = rng.normal(size=(p, n))
    return a, b, c
