"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: the Lyapunov oracle
integrates the Gramian quadrature directly, the H-infinity oracle is a dense
frequency sweep (evaluated in batched chunks of frequencies, with no
Hamiltonian level-set step), and the ODE oracle is a fixed-step
classical Runge-Kutta scheme.  The monomial Jacobian oracle is the plain
triple loop over every entry, and the expression oracle walks a tree
recursively in Python floats.  The gain and fit oracles call their maps one
sample (one state) at a time, where the library calls them on the whole
stack.  Nothing here imports from ``koopgram``.
"""

from __future__ import annotations

import math

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


def monomial_jacobian_by_loop(exponents, x) -> np.ndarray:
    """Jacobian of the monomials ``prod_k x_k ** e_k``, one ``e`` per row of
    ``exponents``, entry by entry: ``e_j x_j ** (e_j - 1)`` times the other
    factors in coordinate order."""
    x = np.asarray(x, float)
    n = len(exponents[0])
    jac = np.zeros((len(exponents), n))
    for i, e in enumerate(exponents):
        for j, power in enumerate(e):
            if power == 0:
                continue
            term = power * x[j] ** (power - 1) if power > 1 else float(power)
            for k, pk in enumerate(e):
                if k != j and pk > 0:
                    term = term * x[k] ** pk
            jac[i, j] = term
    return jac


_TRANSCENDENTAL = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh}


def evaluate_tree(tree, x, u) -> float:
    """Value of a JSON expression tree at ``(x, u)``, recursively in Python
    floats: numpy's sin, cos and tanh, and ``math.pow``, whose ``ValueError``
    (no real value) is re-raised as ``pow(a, b) has no real value``.  A
    division by zero raises ``ZeroDivisionError`` and an overflowing power
    ``OverflowError``; arguments are evaluated left to right."""
    if isinstance(tree, (int, float)):
        return float(tree)
    if "const" in tree:
        return float(tree["const"])
    if "var" in tree:
        name = tree["var"]
        return float((x if name[0] == "x" else u)[int(name[1:]) - 1])
    op = tree["op"]
    args = [evaluate_tree(arg, x, u) for arg in tree["args"]]
    if op in _TRANSCENDENTAL:
        return float(_TRANSCENDENTAL[op](args[0]))
    if op == "neg":
        return -args[0]
    a, b = args
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    try:
        return math.pow(a, b)
    except ValueError:
        raise ValueError(f"pow({a!r}, {b!r}) has no real value") from None


def gains_by_sample_loop(f, dims, sample_budget: int, seed, box: float):
    """Sampled per-coordinate gains with one map call per sample.

    The same samples as ``gsvd.estimate_gains`` (box samples, then six
    radial rays), but ``f`` takes one point at a time and each ratio is
    folded into the running maximum.  Returns ``(bounds, sample_count)``.
    """
    rng = np.random.default_rng(seed)
    dims = dims if isinstance(dims, tuple) else (int(dims),)
    radii = box * np.array([1e-3, 1e-2, 0.1, 0.2, 0.5, 1.0])
    n_box = max(sample_budget // 2, 1)
    n_dirs = max((sample_budget - n_box) // radii.size, 1)
    stacks = []
    for d in dims:
        pts = [rng.uniform(-box, box, size=(n_box, d))]
        dirs = rng.normal(size=(n_dirs, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        pts.extend(dirs * r for r in radii)
        stacks.append(np.vstack(pts))
    samples = list(zip(*stacks))
    best = None
    for args in samples:
        scale = np.linalg.norm(args[-1])
        if scale == 0.0:
            continue
        fx = np.asarray(f(*args), float).reshape(-1)
        if not np.all(np.isfinite(fx)):
            where = ", ".join(f"{name}={v}" for name, v in zip("xu", args))
            raise ValueError(f"map returned non-finite values at {where}")
        ratio = np.abs(fx) / scale
        best = ratio if best is None else np.maximum(best, ratio)
    return best, len(samples)


def koopman_fit_by_state_loop(f0, h, dictionary, states, seed) -> dict:
    """Generator and output fit with every map called on one state at a time.

    ``phi``, ``D_phi @ f0`` and ``h`` per state; the ridge fit on a random
    four fifths (the library's split and ridge), the held-out residual gain,
    the output residual and the output scale each by a loop over states.
    """
    phis, targets, ys = [], [], []
    for x in states:
        phis.append(np.asarray(dictionary.evaluate(x), float))
        targets.append(np.asarray(dictionary.jacobian(x), float) @ np.asarray(f0(x), float))
        ys.append(np.atleast_1d(np.asarray(h(x), float)))
    phis, targets, ys = np.stack(phis), np.stack(targets), np.stack(ys)
    perm = np.random.default_rng(seed).permutation(len(states))
    n_hold = max(int(round(0.2 * len(states))), 1)
    train, hold = perm[n_hold:], perm[:n_hold]
    gram = phis[train].T @ phis[train]
    ridge = 1e-10 * (np.trace(gram) / max(gram.shape[0], 1))
    a = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), phis[train].T @ targets[train]).T
    residual_gain = 0.0
    for k in hold:
        denom = np.linalg.norm(phis[k])
        if denom > 0.0:
            residual_gain = max(residual_gain, float(np.linalg.norm(targets[k] - a @ phis[k]) / denom))
    sol, *_ = np.linalg.lstsq(phis, ys, rcond=None)
    c = sol.T
    return {
        "a": a,
        "c": c,
        "residual_gain": residual_gain,
        "output_residual": max(float(np.linalg.norm(y - c @ phi)) for y, phi in zip(ys, phis)),
        "output_scale": max(float(np.linalg.norm(y)) for y in ys),
    }


def secant_sweep_by_draw_loop(f, n: int, l: int, box: float) -> float:
    """Largest secant ratio ``|f(x, u1) - f(x, u2)| / |u1 - u2|`` with ``f``
    called on one point at a time: 400 draws of ``x``, ``u1`` and ``u2`` in
    turn from ``[-box, box]`` (seed 0), a draw with ``u1 = u2`` skipped."""
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(400):
        x = rng.uniform(-box, box, size=n)
        u1 = rng.uniform(-box, box, size=l)
        u2 = rng.uniform(-box, box, size=l)
        du = np.linalg.norm(u1 - u2)
        if du == 0.0:
            continue
        best = max(best, float(np.linalg.norm(f(x, u1) - f(x, u2)) / du))
    return best
