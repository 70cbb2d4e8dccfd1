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

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .linalg import integrate_ode, is_hurwitz

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
    x itself and every observable vanishes at the origin.
    """

    n: int
    q: int
    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    exponents: tuple[tuple[int, ...], ...] | None = None

    def spec(self) -> dict:
        """JSON-serializable description sufficient to rebuild the dictionary."""
        out = {"kind": self.kind, "n": self.n, "q": self.q}
        if self.exponents is not None:
            out["exponents"] = [list(e) for e in self.exponents]
        return out


def _monomial_dictionary(n: int, exponents: Sequence[Sequence[int]]) -> Dictionary:
    exps = tuple(tuple(int(v) for v in e) for e in exponents)
    for e in exps:
        if len(e) != n or any(v < 0 for v in e) or sum(e) == 0:
            raise ValueError(f"bad monomial exponent {e}")
    coords = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    if exps[:n] != coords:
        raise ValueError("dictionary must be state-inclusive: first n observables are the coordinates")
    emat = np.array(exps, dtype=float)  # (q, n)

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.prod(np.where(emat > 0, x[None, :] ** emat, 1.0), axis=1)
        return vals

    def jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        jac = np.zeros((emat.shape[0], n))
        for i, e in enumerate(exps):
            for j, power in enumerate(e):
                if power == 0:
                    continue
                term = power * x[j] ** (power - 1) if power > 1 else float(power)
                for k, pk in enumerate(e):
                    if k != j and pk > 0:
                        term = term * x[k] ** pk
                jac[i, j] = term
        return jac

    return Dictionary(
        n=n, q=len(exps), kind="monomials", evaluate=evaluate, jacobian=jacobian, exponents=exps
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
    """Sample drift trajectories from random initial conditions in a box."""
    rng = np.random.default_rng(seed)
    t_eval = np.linspace(0.0, horizon, samples_per_trajectory)
    states = []
    for x0 in rng.uniform(-box, box, size=(count, n)):
        states.append(integrate_ode(lambda t, x: f0(x), x0, t_eval, tol))
    provenance = {
        "seed": [int(v) for v in seed] if np.iterable(seed) else int(seed),
        "count": int(count),
        "horizon": float(horizon),
        "samples_per_trajectory": int(samples_per_trajectory),
        "box": float(box),
        "integrator_tol": float(tol),
    }
    return TrajectoryDataset(np.vstack(states), provenance)


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
    state.  The generator is a ridge least-squares fit on a random four
    fifths of the states; its residual gain is the largest held-out ratio
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
    phis, targets, ys = [], [], []
    for x in data.states:
        phis.append(np.asarray(dictionary.evaluate(x), float))
        targets.append(np.asarray(dictionary.jacobian(x), float) @ np.asarray(f0(x), float))
        ys.append(np.atleast_1d(np.asarray(h(x), float)))
    phis, targets, ys = np.stack(phis), np.stack(targets), np.stack(ys)

    train_idx, hold_idx = _split_indices(data.size, seed)
    a = _ridge_least_squares(phis[train_idx], targets[train_idx])
    residual_gain = 0.0
    for k in hold_idx:
        denom = np.linalg.norm(phis[k])
        if denom > 0.0:
            ratio = float(np.linalg.norm(targets[k] - a @ phis[k]) / denom)
            residual_gain = max(residual_gain, ratio)

    sol, *_ = np.linalg.lstsq(phis, ys, rcond=None)
    c = sol.T
    output_residual = max(float(np.linalg.norm(y - c @ phi)) for y, phi in zip(ys, phis))
    return KoopmanModel(
        dictionary=dictionary,
        a=a,
        c=c,
        residual_gain=residual_gain,
        output_residual=output_residual,
        output_scale=max(float(np.linalg.norm(y)) for y in ys),
        hurwitz=is_hurwitz(a, margin=1e-10),
    )


def lifted_control_term(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dictionary: Dictionary,
    l: int,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Control contribution to the lifted dynamics: D_phi(x) (f(x,u) - f(x,0)).

    The returned map ``(x, u) -> R^q`` vanishes at ``u = 0``; factor it with
    ``gsvd.decompose(fu, (n, l), gains)``.
    """

    def eval_fu(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        jac = np.asarray(dictionary.jacobian(x), float)
        return jac @ (np.asarray(f(x, u), float) - np.asarray(f(x, np.zeros(l)), float))

    return eval_fu
