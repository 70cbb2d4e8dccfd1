"""Example systems, probing signals, and empirical certificate validation.

The empirical side of the toolkit: simulate the full nonlinear system and
its reduced counterpart from rest under a deterministic family of
square-integrable inputs, measure the worst output-difference to input
energy ratio, and compare it against the a-priori certificate.  The
empirical ratio is a lower bound on the true induced norm, so a sound
certificate must always dominate it.

``simulate_ensemble(system, bn, orders, ensemble, tol)`` makes one ODE solve
per probe signal, on the stacked state ``[x; z_r1; ...; z_rk]`` of the full
system and every reduced order: the input is evaluated once per step, and
all systems share one step sequence, so the full-vs-reduced difference
carries no integrator noise from different step grids.  The integrator
tests its local error component by component, so the stacked solve runs at
``tol`` and each block keeps the error control it would have alone; one
order's estimate still moves, at integration-error level, with the other
orders requested, as they change the shared steps.  When that solve
fails, the blocks are solved one by one: a failure of the full system
excludes the signal at every order, with its error text, and a failure of
one reduced order excludes the signal only at that order.
``estimate_gap(trajectories, red, ensemble)`` integrates nothing; it turns
the trajectories into one order's empirical gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from .balance import BalancedNonlinear, ReducedRealization
from .linalg import StiffnessError, integrate_ode

__all__ = [
    "ControlSystem",
    "Signal",
    "GainEstimate",
    "builtin_systems",
    "get_builtin",
    "input_ensemble",
    "signal_l2_norm",
    "Trajectories",
    "simulate_ensemble",
    "estimate_gap",
    "judge_bound",
]


@dataclass(frozen=True)
class ControlSystem:
    """Black-box dynamics with output map and control-sensitivity metadata."""

    name: str
    n: int
    l: int
    p: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    lipschitz_u: float
    dictionary_hint: dict = field(default_factory=lambda: {"kind": "identity"})
    gain_box: float = 5.0
    suggested_slack: float = 1.05

    def __post_init__(self):
        # written as not-below so that a NaN value is rejected too
        zero = np.asarray(self.f(np.zeros(self.n), np.zeros(self.l)), float)
        if not np.linalg.norm(zero) <= 1e-12:
            raise ValueError(f"{self.name}: f(0, 0) must vanish, got norm {np.linalg.norm(zero):.3e}")
        hzero = np.atleast_1d(np.asarray(self.h(np.zeros(self.n)), float))
        if not np.linalg.norm(hzero) <= 1e-12:
            raise ValueError(f"{self.name}: h(0) must vanish")

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(x, np.zeros(self.l)), float)


def _lti6() -> ControlSystem:
    rng = np.random.default_rng(1234)
    m = rng.normal(size=(6, 6))
    shift = np.max(np.linalg.eigvals(m).real) + 0.75
    a = m - shift * np.eye(6)
    b = rng.normal(size=(6, 2))
    c = rng.normal(size=(2, 6))

    return ControlSystem(
        name="lti6",
        n=6,
        l=2,
        p=2,
        f=lambda x, u: a @ x + b @ u,
        h=lambda x: c @ x,
        lipschitz_u=float(np.linalg.norm(b, 2)),
    )


def _slow_manifold_f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.array(
        [
            -x[0] + 0.5 * np.tanh(u[0]),
            -2.0 * (x[1] - x[0] ** 2) + np.cos(x[0]) * np.tanh(u[0]),
        ]
    )


def _slow_manifold(exact: bool) -> ControlSystem:
    hint = {"kind": "monomials", "exponents": [[1, 0], [0, 1], [2, 0]]}
    return ControlSystem(
        name="slow_manifold" if exact else "slow_manifold_identity",
        n=2,
        l=1,
        p=2,
        f=_slow_manifold_f,
        h=lambda x: x[:2].copy(),
        lipschitz_u=float(np.sqrt(1.25)),
        **({"dictionary_hint": hint} if exact else {}),
        gain_box=3.0,
        suggested_slack=1.25,
    )


def _tanh_first_order() -> ControlSystem:
    return ControlSystem(
        name="tanh_first_order",
        n=1,
        l=1,
        p=1,
        f=lambda x, u: -x + np.tanh(u),
        h=lambda x: x.copy(),
        lipschitz_u=1.0,
    )


def _mild_cubic_f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    # saturating cubic: x^3/(1+x^2) grows linearly, so the residual left
    # after the best linear fit keeps a small, globally finite gain
    return np.array(
        [
            -x[0] + 0.5 * x[1] + 0.3 * np.tanh(u[0]),
            -2.0 * x[1] - 0.1 * x[0] ** 3 / (1.0 + x[0] ** 2) + np.tanh(u[0]),
        ]
    )


def _mild_cubic() -> ControlSystem:
    return ControlSystem(
        name="mild_cubic",
        n=2,
        l=1,
        p=1,
        f=_mild_cubic_f,
        h=lambda x: x[:1].copy(),
        lipschitz_u=float(np.sqrt(1.09)),
        gain_box=4.0,
    )


# name -> factory of each bundled example system, in builtin_systems() order
_BUILTINS = {
    "lti6": _lti6,
    "slow_manifold": lambda: _slow_manifold(True),
    "slow_manifold_identity": lambda: _slow_manifold(False),
    "tanh_first_order": _tanh_first_order,
    "mild_cubic": _mild_cubic,
}


def builtin_systems() -> list[ControlSystem]:
    """The bundled example systems, from linear to non-affine control."""
    return [build() for build in _BUILTINS.values()]


def get_builtin(name: str) -> ControlSystem:
    """The bundled example system ``name``, built alone."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin system {name!r}; known: {', '.join(_BUILTINS)}")
    return _BUILTINS[name]()


@dataclass(frozen=True)
class Signal:
    """Square-integrable input on [0, horizon] with its known L2 norm."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]  # (k,) times -> (k, l) values
    horizon: float
    l2_norm: float

    def __post_init__(self):
        if not (self.l2_norm > 0.0 and np.isfinite(self.l2_norm)):
            raise ValueError(f"signal {self.name} must carry positive energy")
        if self.horizon <= 0.0:
            raise ValueError("signal horizon must be positive")

    def __call__(self, t: float) -> np.ndarray:
        return self.fn(np.atleast_1d(np.asarray(t, float)))[0]


# Simpson nodes of ``signal_l2_norm``, the band (rad/s) ``input_ensemble``
# sweeps, and the slack ``judge_bound`` leaves for integration and quadrature
L2_QUADRATURE_POINTS = 40_001
FREQ_BAND = (0.05, 12.0)
VERDICT_CUSHION = 1e-6


def signal_l2_norm(fn: Callable, horizon: float) -> float:
    """Fine-quadrature L2 norm of a vector-valued signal."""
    ts = np.linspace(0.0, horizon, L2_QUADRATURE_POINTS)
    vals = fn(ts)
    sq = np.sum(vals * vals, axis=1)
    return float(np.sqrt(scipy.integrate.simpson(sq, x=ts)))


def _decayed_tone(amp, decay, freqs, phases):
    def fn(ts):
        ts = ts[:, None]
        return amp * np.exp(-decay * ts) * np.sin(freqs[None, :] * ts + phases[None, :])

    return fn


def _noise_burst(coeffs, freqs, phases, center, width):
    def fn(ts):
        ts = ts[:, None]
        window = np.exp(-(((ts - center) / width) ** 2))
        tones = np.zeros((ts.shape[0], coeffs.shape[1]))
        for k in range(coeffs.shape[0]):
            tones += coeffs[k][None, :] * np.sin(freqs[k][None, :] * ts + phases[k][None, :])
        return window * tones

    return fn


def _chirp(amp, decay, omega0, rate, phases):
    def fn(ts):
        ts = ts[:, None]
        phase = omega0 * ts + 0.5 * rate * ts * ts
        return amp * np.exp(-decay * ts) * np.sin(phase + phases[None, :])

    return fn


def input_ensemble(l: int, horizon: float, count: int, seed: int = 0) -> list[Signal]:
    """Deterministic probing family: decayed tones, noise bursts, chirps.

    Tones sweep ``FREQ_BAND`` on a log grid with slow decay, so their
    energy concentrates near one frequency; bursts and chirps cover the band
    broadly.  Every signal carries its fine-quadrature L2 norm.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = FREQ_BAND
    n_chirps = count // 5
    n_bursts = count // 5
    n_tones = count - n_chirps - n_bursts
    tone_freqs = np.geomspace(max(lo, 1e-3), hi, n_tones)

    named = []
    for i in range(n_tones):
        named.append(
            (
                f"tone-{i}",
                _decayed_tone(
                    amp=rng.uniform(0.5, 1.5),
                    decay=rng.uniform(0.1, 0.3),
                    freqs=tone_freqs[i] * rng.uniform(0.95, 1.05, size=l),
                    phases=rng.uniform(0, 2 * np.pi, size=l),
                ),
            )
        )
    for i in range(n_bursts):
        named.append(
            (
                f"burst-{i}",
                _noise_burst(
                    coeffs=rng.uniform(-1.0, 1.0, size=(5, l)),
                    freqs=rng.uniform(lo, hi, size=(5, l)),
                    phases=rng.uniform(0, 2 * np.pi, size=(5, l)),
                    center=rng.uniform(0.2, 0.5) * horizon,
                    width=rng.uniform(0.05, 0.15) * horizon,
                ),
            )
        )
    for i in range(n_chirps):
        named.append(
            (
                f"chirp-{i}",
                _chirp(
                    amp=rng.uniform(0.5, 1.2),
                    decay=rng.uniform(0.05, 0.15),
                    omega0=lo,
                    rate=(hi - lo) / max(horizon, 1e-6),
                    phases=rng.uniform(0, 2 * np.pi, size=l),
                ),
            )
        )
    signals = []
    for name, fn in named:
        norm = signal_l2_norm(fn, horizon)
        if norm <= 1e-9:
            raise ValueError(f"signal {name} has no energy on the horizon")
        signals.append(Signal(name=name, fn=fn, horizon=horizon, l2_norm=norm))
    return signals


@dataclass(frozen=True)
class GainEstimate:
    """Worst sampled ratio ||y_full - y_reduced||_L2 / ||u||_L2."""

    value: float
    per_signal: list
    ensemble: str
    excluded: list


_N_GRID = 2001  # output samples per probe signal, full and reduced alike


@dataclass(frozen=True)
class Trajectories:
    """One probe signal's simulation from rest on the output grid.

    ``full`` is the full system's output ``h(x)``, ``reduced`` maps each
    order to its reduced state; a block whose solve failed holds the error
    text instead, and when the full block failed ``reduced`` is empty.
    """

    grid: np.ndarray
    full: np.ndarray | str
    reduced: dict


def _integrate(blocks, signal: Signal, grid: np.ndarray, tol: float) -> list:
    """States of every ``(rhs, dim)`` block, solved together as one stacked ODE
    ``s' = [rhs_1(s_1, u); rhs_2(s_2, u); ...]`` with ``u = signal(t)`` evaluated
    once per step, so all blocks share one step sequence.

    The integrator accepts a step only when every component's scaled local
    error is below 1, so each block is held to ``tol`` as if solved alone;
    the others can only shorten its steps, never loosen its control.
    """
    edges = np.cumsum([0] + [dim for _, dim in blocks])
    parts = [(rhs, slice(lo, hi)) for (rhs, _), lo, hi in zip(blocks, edges, edges[1:])]

    def field(t, s):
        u = signal(t)
        ds = np.empty(s.shape)
        for rhs, part in parts:
            ds[part] = rhs(s[part], u)
        return ds

    states = integrate_ode(field, np.zeros(edges[-1]), grid, tol)
    return [states[:, part] for _, part in parts]


def _solve_alone(block, signal: Signal, grid: np.ndarray, tol: float):
    """One block's states, or the error text of its failed solve."""
    try:
        return _integrate([block], signal, grid, tol)[0]
    except (StiffnessError, ValueError) as exc:
        return str(exc)


def simulate_ensemble(
    system: ControlSystem, bn: BalancedNonlinear, orders: Sequence[int],
    ensemble: Sequence[Signal], tol: float,
) -> list[Trajectories]:
    """Full system and every reduced order from rest, one stacked solve per signal.

    If that solve fails, the full system is solved alone; if it fails too,
    its error text excludes the signal at every order.  Otherwise each order
    is solved alone, and only the orders that fail are excluded.
    """
    orders = list(dict.fromkeys(orders))
    blocks = [(system.f, system.n)] + [(bn.f_reduced, r) for r in orders]
    out = []
    for signal in ensemble:
        grid = np.linspace(0.0, signal.horizon, _N_GRID)
        try:
            states = _integrate(blocks, signal, grid, tol)
        except (StiffnessError, ValueError):
            # block by block, so that a failing block cannot exclude the others
            states = [_solve_alone(blocks[0], signal, grid, tol)]
            if not isinstance(states[0], str):
                states += [_solve_alone(block, signal, grid, tol) for block in blocks[1:]]
        xs = states[0]
        full = xs if isinstance(xs, str) else np.stack(
            [np.atleast_1d(np.asarray(system.h(x), float)) for x in xs]
        )
        out.append(Trajectories(grid=grid, full=full, reduced=dict(zip(orders, states[1:]))))
    return out


def estimate_gap(
    trajectories: Sequence[Trajectories], red: ReducedRealization, ensemble: Sequence[Signal],
) -> GainEstimate:
    """Empirical lower bound on the full-vs-reduced H-infinity error at one order.

    ``trajectories`` comes from ``simulate_ensemble`` on the same ensemble.
    Signals whose full or order-``red.order`` solve failed are excluded and
    flagged; a clean validation verdict requires zero exclusions.
    """
    per_signal = []
    excluded = []
    value = 0.0
    for signal, traj in zip(ensemble, trajectories, strict=True):
        # a failed full solve excludes the signal at every order
        zs = traj.full if isinstance(traj.full, str) else traj.reduced[red.order]
        if isinstance(zs, str):
            excluded.append({"signal": signal.name, "error": zs})
            continue
        diff = traj.full - zs @ red.c_r.T
        l2 = float(np.sqrt(scipy.integrate.simpson(np.sum(diff * diff, axis=1), x=traj.grid)))
        ratio = l2 / signal.l2_norm
        per_signal.append({"signal": signal.name, "ratio": float(ratio)})
        value = max(value, ratio)

    description = f"{len(ensemble)} signals on [0, {ensemble[0].horizon:g}]" if ensemble else "empty"
    return GainEstimate(value=float(value), per_signal=per_signal, ensemble=description, excluded=excluded)


def judge_bound(bound: float | None, empirical: float, excluded: int) -> tuple[str, float | None]:
    """The verdict rule: PASS needs the bound honored and zero exclusions.

    ``VERDICT_CUSHION`` absorbs integration and quadrature error; an
    unbounded certificate is skipped rather than judged.
    """
    if bound is None:
        return "SKIPPED-SMALL-GAIN", None
    ok = empirical <= bound + VERDICT_CUSHION and excluded == 0
    tightness = empirical / bound if bound > 0 else None
    return ("PASS" if ok else "FAIL"), tightness
