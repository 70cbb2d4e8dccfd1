"""Finite state-inclusive Koopman generators for autonomous drifts.

The drift ``f(x, 0)`` is lifted through a dictionary of observables whose
first ``n`` entries are the state coordinates themselves.  ``fit_koopman``
is the one fit: at each sampled state it evaluates ``phi(x)``, the Lie
derivative ``D_phi(x) @ f(x, 0)`` and the output ``h(x)`` once, then fits
the generator ``A`` by ridge least squares against the analytic Lie
derivatives (which keeps integrator noise out of the regression) and the
output matrix ``C`` by minimum-norm least squares.  Whatever the finite
dictionary cannot represent, the representation error
``D_phi(x) f(x, 0) - A phi(x)``, is evaluated by
``balance.balanced_nonlinear`` and priced by the norm-preserving
factorization machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .linalg import int_power, integrate_ode, is_hurwitz, row_norms, row_products

__all__ = [
    "Dictionary",
    "TrajectoryDataset",
    "KoopmanModel",
    "build_dictionary",
    "collect_trajectories",
    "fit_koopman",
    "lifted_control_term",
]


@dataclass(frozen=True)
class Dictionary:
    """State-inclusive observable set with an analytic Jacobian.

    ``evaluate(x)`` returns the q lifted coordinates; the first n of them are
    x itself and every observable vanishes at the origin.  It also takes a
    ``(k, n)`` stack of states and returns the ``(k, q)`` stack of their
    lifts, bit for bit the rows of ``k`` single calls.  ``lie_terms(x, v)``
    takes one state ``x`` and one vector ``v`` as lists of floats and returns
    the list ``[D_phi_nl(x) v; phi_nl(x)]`` over the ``q - n`` observables
    past the coordinates, from one pass over their factors in Python floats
    (empty when ``q = n``); the simulation's reduced fields call it per point.
    ``jacobians(xs)`` is the ``(k, q, n)`` stack of ``jacobian`` at each row
    of a ``(k, n)`` stack of states, possibly read-only, built once per
    stack (a monomial dictionary's entry by entry on whole columns, with the
    bits of ``jacobian``); ``build_dictionary`` makes every one.  Monomial
    factor powers are ``linalg.int_power``'s left-to-right products in
    ``jacobian``, ``jacobians`` and ``lie_terms``; ``evaluate`` takes
    numpy's power.
    """

    n: int
    q: int
    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    jacobians: Callable[[np.ndarray], np.ndarray]
    exponents: tuple[tuple[int, ...], ...]
    lie_terms: Callable[[list, list], list] = lambda x, v: []

    def spec(self) -> dict:
        """JSON-serializable description sufficient to rebuild the dictionary."""
        return {"kind": self.kind, "n": self.n, "q": self.q, "exponents": [list(e) for e in self.exponents]}


def _monomial_dictionary(n: int, exponents: Sequence[Sequence[int]]) -> Dictionary:
    exps = tuple(tuple(int(v) for v in e) for e in exponents)
    for e in exps:
        if len(e) != n or any(v < 0 for v in e) or sum(e) == 0:
            raise ValueError(f"bad monomial exponent {e}")
    coords = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    if exps[:n] != coords:
        raise ValueError("dictionary must be state-inclusive: first n observables are the coordinates")
    emat = np.array(exps, dtype=float)  # (q, n)
    present = emat > 0
    # the nonzero entries of D_phi: row i, column j, the power of x_j in
    # monomial i, and the other factors (k, power) of that monomial in order
    entries = [
        (i, j, power, tuple((k, pk) for k, pk in enumerate(e) if k != j and pk > 0))
        for i, e in enumerate(exps) for j, power in enumerate(e) if power > 0
    ]

    def evaluate(x: np.ndarray) -> np.ndarray:
        # one state (n,) or a stack (k, n) of states; exponents are
        # non-negative integers, so no power divides by zero
        x = np.asarray(x, float)
        return np.prod(np.where(present, x[..., None, :] ** emat, 1.0), axis=-1)

    def term(x, j: int, power: int, others: tuple):
        # one entry of D_phi at a state's list of floats, or at an (n, k)
        # array of a stack's columns: the same products in the same order
        out = power * int_power(x[j], power - 1) if power > 1 else float(power)
        for k, pk in others:
            out = out * int_power(x[k], pk)
        return out

    def jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float).tolist()
        jac = np.zeros(emat.shape)
        for i, j, power, others in entries:
            jac[i, j] = term(x, j, power, others)
        return jac

    def jacobians(xs: np.ndarray) -> np.ndarray:
        # jacobian's entries, each computed once on the whole stack
        cols = np.ascontiguousarray(np.asarray(xs, float).T)
        jac = np.zeros((cols.shape[1], *emat.shape))
        for i, j, power, others in entries:
            jac[:, i, j] = term(cols, j, power, others)
        return jac

    # the Jacobian entries and the factors of the observables past the coordinates
    lie_entries = [entry for entry in entries if entry[0] >= n]
    factors = [[(k, pk) for k, pk in enumerate(e) if pk > 0] for e in exps[n:]]

    def lie_terms(x: list, v: list) -> list:
        # jacobian's products, each dotted with v as it comes
        lie = [0.0] * len(factors)
        for i, j, power, others in lie_entries:
            lie[i - n] += term(x, j, power, others) * v[j]
        return lie + [math.prod([int_power(x[k], pk) for k, pk in fs]) for fs in factors]

    return Dictionary(
        n=n, q=len(exps), kind="monomials", evaluate=evaluate, jacobian=jacobian, exponents=exps,
        lie_terms=lie_terms, jacobians=jacobians,
    )


def build_dictionary(
    kind: str,
    n: int,
    degree: int | None = None,
    exponents: Sequence[Sequence[int]] | None = None,
) -> Dictionary:
    """Construct an observable dictionary.

    kind "identity" lifts by the coordinates alone; "monomials" takes either
    every monomial of total degree 1..degree (no constant, coordinates first)
    or an explicit exponent list.
    """
    if kind == "identity":
        # the coordinate monomials in closed form: phi(x) = x, D_phi = I, exactly
        eye = np.eye(n)
        exps = tuple(tuple(int(v) for v in row) for row in eye)
        return Dictionary(
            n=n, q=n, kind="identity", evaluate=lambda x: np.array(x, dtype=float),
            jacobian=lambda x: eye.copy(), exponents=exps,
            jacobians=lambda xs: np.broadcast_to(eye, (len(xs), n, n)),
        )
    if kind == "monomials":
        if exponents is None:
            if degree is None or degree < 1:
                raise ValueError("monomial dictionaries need degree >= 1 or explicit exponents")
            exps = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            for deg in range(2, degree + 1):
                for combo in combinations_with_replacement(range(n), deg):
                    e = [0] * n
                    for idx in combo:
                        e[idx] += 1
                    exps.append(tuple(e))
            exponents = exps
        return _monomial_dictionary(n, exponents)
    raise ValueError(f"dictionary kind must be identity or monomials, got {kind!r}")


@dataclass(frozen=True)
class TrajectoryDataset:
    """Sampled states used to fit the generator, with their provenance."""

    states: np.ndarray  # (N, n)
    provenance: dict

    def __post_init__(self):
        states = np.asarray(self.states, float)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("dataset must hold at least one state")
        if not np.all(np.isfinite(states)):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return self.states.shape[0]


def collect_trajectories(
    f0: Callable[[np.ndarray], np.ndarray],
    n: int,
    count: int = 30,
    horizon: float = 4.0,
    samples_per_trajectory: int = 10,
    box: float = 2.0,
    tol: float = 1e-9,
    seed: int = 0,
) -> TrajectoryDataset:
    """Sample drift trajectories from random initial conditions in a box.

    The ``count`` trajectories are integrated together as one ODE on the
    flattened ``(count, n)`` stack of states: ``f0`` is called on the whole
    stack, one call per field evaluation, and returns its ``(count, n)``
    rows, as ``ControlSystem.drift`` does.  All trajectories share one
    LSODA step sequence.  LSODA accepts a step by the weighted max norm of
    its local error, component by component, so each trajectory is still
    held to ``tol`` as in a solve of its own; since no row's field depends on
    another row, the solve's stiff steps treat the Jacobian as block
    diagonal.  The states come back trajectory by trajectory, each with its
    ``samples_per_trajectory`` times in order.
    """
    rng = np.random.default_rng(seed)
    t_eval = np.linspace(0.0, horizon, samples_per_trajectory)
    x0s = rng.uniform(-box, box, size=(count, n))

    def field(t, x):
        return np.asarray(f0(x.reshape(count, n)), float).reshape(-1)

    ys = integrate_ode(field, x0s.reshape(-1), t_eval, tol, block=n)
    states = ys.reshape(t_eval.size, count, n).transpose(1, 0, 2).reshape(-1, n)
    provenance = {
        "seed": [int(v) for v in seed] if np.iterable(seed) else int(seed),
        "count": int(count),
        "horizon": float(horizon),
        "samples_per_trajectory": int(samples_per_trajectory),
        "box": float(box),
        "integrator_tol": float(tol),
    }
    return TrajectoryDataset(states, provenance)


@dataclass(frozen=True)
class KoopmanModel:
    """Fitted lifted realization: generator, output matrix, residual data."""

    dictionary: Dictionary
    a: np.ndarray
    c: np.ndarray
    residual_gain: float
    output_residual: float
    output_scale: float
    hurwitz: bool

    @property
    def q(self) -> int:
        return self.dictionary.q


def _ridge_least_squares(phis: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve min_A sum ||target_k - A phi_k||^2 + ridge ||A||_F^2.

    The ridge is 1e-10 times the mean diagonal of the Gram matrix.
    """
    gram = phis.T @ phis
    ridge = 1e-10 * (np.trace(gram) / max(gram.shape[0], 1))
    rhs = phis.T @ targets
    sol = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
    return sol.T


def _split_indices(n_samples: int, seed: int):
    """Random (train, hold-out) split holding out a fifth of the samples."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_samples)
    n_hold = max(int(round(0.2 * n_samples)), 1)
    return perm[n_hold:], perm[:n_hold]


def fit_koopman(
    f0: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
    dictionary: Dictionary,
    data: TrajectoryDataset,
    seed: int = 0,
) -> KoopmanModel:
    """Fit the generator and the output matrix into one model.

    ``phi(x)``, ``D_phi(x) @ f0(x)`` and ``h(x)`` are evaluated once per data
    state: ``f0``, ``h`` and ``phi`` are called once, on the ``(N, n)`` stack
    of states, and return one row per state (``h`` may return ``(N,)`` for
    one output), as ``ControlSystem.drift`` and ``h`` do; ``jacobians`` is
    called once on the stack too (a monomial dictionary builds it there, a
    hand-built one by default calls ``jacobian`` per state), and every
    product and norm runs once on the stack, with the bits of per-state
    calls.  The generator is a ridge least-squares fit
    on a random four fifths of the states; its residual gain is the largest held-out ratio
    ``||D_phi(x) f0(x) - A phi(x)|| / ||phi(x)||``, an out-of-sample estimate
    of the induced norm of the representation error.  The output matrix is
    the minimum-norm least-squares ``C`` on every state, so rank deficiency
    is not an error; its worst fit error ``||h(x) - C phi(x)||`` is the
    output residual, about zero whenever ``h`` lies in the span of the
    observables; the output scale is the largest ``||h(x)||``.
    """
    if data.size < 2 * dictionary.q:
        raise ValueError(
            f"need at least {2 * dictionary.q} snapshots, got {data.size}"
        )
    states = data.states
    phis = np.asarray(dictionary.evaluate(states), float)
    targets = row_products(dictionary.jacobians(states), np.asarray(f0(states), float))
    ys = np.asarray(h(states), float).reshape(data.size, -1)

    train_idx, hold_idx = _split_indices(data.size, seed)
    a = _ridge_least_squares(phis[train_idx], targets[train_idx])
    denom = row_norms(phis[hold_idx])
    misfit = row_norms(targets[hold_idx] - row_products(a, phis[hold_idx]))
    nonzero = denom > 0.0
    residual_gain = float(np.max(misfit[nonzero] / denom[nonzero], initial=0.0))

    sol, *_ = np.linalg.lstsq(phis, ys, rcond=None)
    c = sol.T
    output_residual = float(np.max(row_norms(ys - row_products(c, phis))))
    return KoopmanModel(
        dictionary=dictionary,
        a=a,
        c=c,
        residual_gain=residual_gain,
        output_residual=output_residual,
        output_scale=float(np.max(row_norms(ys))),
        hurwitz=is_hurwitz(a, margin=1e-10),
    )


def lifted_control_term(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dictionary: Dictionary,
    l: int,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Control contribution to the lifted dynamics: D_phi(x) (f(x,u) - f(x,0)).

    The returned map ``(x, u) -> R^q`` vanishes at ``u = 0``; factor it with
    ``gsvd.decompose(fu, (n, l), gains)``.  It also takes a ``(k, n)`` stack
    of states with a ``(k, l)`` stack of inputs and returns the ``(k, q)``
    stack of values, bit for bit the rows of ``k`` single calls: ``f`` takes
    the stacks, as ``ControlSystem.f`` does, and is called twice per stack;
    the dictionary's ``jacobians`` and the products run once per stack.
    """

    def eval_fu(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # one point or a stack of them, each row with the bits of a single
        # point
        xs = np.atleast_2d(np.asarray(x, float))
        us = np.atleast_2d(np.asarray(u, float))
        fields = np.asarray(f(xs, us), float) - np.asarray(f(xs, np.zeros((len(xs), l))), float)
        out = row_products(dictionary.jacobians(xs), fields)
        return out if np.ndim(x) == 2 else out[0]

    return eval_fu
