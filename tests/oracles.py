"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: the Lyapunov oracle
integrates the Gramian quadrature directly, the H-infinity oracle is a dense
frequency sweep (evaluated in batched chunks of frequencies, with no
Hamiltonian level-set step), and the ODE oracle is a fixed-step
classical Runge-Kutta scheme.  The monomial Jacobian oracle is the plain
triple loop over every entry, and the expression oracle walks a tree
recursively in Python floats; both take the integer powers the library
takes as products (every monomial factor, and a ``pow`` with exponent 2, 3
or 4) by their own left-to-right multiplication loop.  The gain and fit
oracles call their maps one sample (one state) at a time, where the library
calls them on the whole stack.  Nothing here imports from ``koopgram``.
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


def _sweep_grid(a, n_points: int) -> np.ndarray:
    """``[0]`` followed by ``n_points`` log-spaced frequencies spanning three
    decades beyond the slowest and fastest poles of ``a``."""
    mags = np.abs(np.linalg.eigvals(a))
    lo = max(np.min(mags) * 1e-3, 1e-6)
    hi = max(np.max(mags) * 1e3, 1.0)
    return np.concatenate([[0.0], np.geomspace(lo, hi, n_points)])


def _gains(a, b, c, freqs) -> np.ndarray:
    """The largest singular value of ``C (jwI - A)^{-1} B`` at each frequency,
    in chunks of ``_SWEEP_CHUNK``: one batched solve of the stacked
    ``(k, n, n)`` matrices ``jwI - A`` per chunk."""
    n, l = np.shape(b)
    eye = np.eye(n)
    out = []
    for start in range(0, freqs.size, _SWEEP_CHUNK):
        w = freqs[start : start + _SWEEP_CHUNK]
        # an explicit (k, n, l) right-hand side is read as a stack of
        # matrices by every numpy version, not as a stack of vectors
        rhs = np.broadcast_to(b, (w.size, n, l))
        g = c @ np.linalg.solve(1j * w[:, None, None] * eye - a, rhs)
        out.append(np.linalg.norm(g, 2, axis=(-2, -1)))
    return np.concatenate(out)


def hinf_by_sweep(a, b, c, n_points: int = 100_000) -> float:
    """Dense log-spaced frequency sweep of the peak transfer gain: the peak
    over ``_sweep_grid(a, n_points)``."""
    return float(np.max(_gains(a, b, c, _sweep_grid(a, n_points))))


def hinf_by_refined_sweep(a, b, c) -> float:
    """Peak transfer gain from a coarse sweep refined around its best peaks.

    The coarse grid is ``_sweep_grid(a, 2_000)``.  Each of its five highest
    local maxima is bracketed by its two neighbours, and the bracket is swept
    with 100 evenly spaced frequencies and narrowed to the neighbours of the
    best of them, four times.  The result is the largest gain sampled, so it
    never exceeds the true peak.
    """
    freqs = _sweep_grid(a, 2_000)
    gains = _gains(a, b, c, freqs)
    padded = np.concatenate([[-np.inf], gains, [-np.inf]])
    peaks = np.flatnonzero((gains >= padded[:-2]) & (gains >= padded[2:]))
    best = float(np.max(gains))
    for i in peaks[np.argsort(gains[peaks])[::-1][:5]]:
        lo, hi = freqs[max(i - 1, 0)], freqs[min(i + 1, freqs.size - 1)]
        for _ in range(4):
            fine = np.linspace(lo, hi, 100)
            fine_gains = _gains(a, b, c, fine)
            k = int(np.argmax(fine_gains))
            best = max(best, float(fine_gains[k]))
            lo, hi = fine[max(k - 1, 0)], fine[min(k + 1, fine.size - 1)]
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


def _product_power(x: float, k: int) -> float:
    """``x ** k`` for an integer ``k >= 1`` as ``x * x * ... * x``, left to right."""
    value = x
    for _ in range(k - 1):
        value = value * x
    return value


def monomial_jacobian_by_loop(exponents, x) -> np.ndarray:
    """Jacobian of the monomials ``prod_k x_k ** e_k``, one ``e`` per row of
    ``exponents``, entry by entry: ``e_j x_j ** (e_j - 1)`` times the other
    factors in coordinate order, each power a product."""
    x = np.asarray(x, float).tolist()
    n = len(exponents[0])
    jac = np.zeros((len(exponents), n))
    for i, e in enumerate(exponents):
        for j, power in enumerate(e):
            if power == 0:
                continue
            term = power * _product_power(x[j], power - 1) if power > 1 else float(power)
            for k, pk in enumerate(e):
                if k != j and pk > 0:
                    term = term * _product_power(x[k], pk)
            jac[i, j] = term
    return jac


_TRANSCENDENTAL = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh}


def evaluate_tree(tree, x, u) -> float:
    """Value of a JSON expression tree at ``(x, u)``, recursively in Python
    floats: numpy's sin, cos and tanh, a power with exponent 2, 3 or 4 as the
    product ``a * a * ...`` and any other by ``math.pow``, whose ``ValueError``
    (no real value) is re-raised as ``pow(a, b) has no real value``.  A
    division by zero raises ``ZeroDivisionError`` and a power of a finite base
    that overflows ``OverflowError("pow(a, b) overflows")``; arguments are
    evaluated left to right."""
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
        value = _product_power(a, int(b)) if b in (2.0, 3.0, 4.0) else math.pow(a, b)
    except ValueError:
        raise ValueError(f"pow({a!r}, {b!r}) has no real value") from None
    except OverflowError:
        value = math.inf
    if math.isinf(value) and math.isfinite(a):
        raise OverflowError(f"pow({a!r}, {b!r}) overflows")
    return value


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
