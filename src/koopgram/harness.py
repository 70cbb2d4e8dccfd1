"""Example systems, probing signals, and empirical certificate validation.

The empirical side of the toolkit: simulate the full nonlinear system and
its reduced counterpart from rest under a deterministic family of
square-integrable inputs, measure the worst output-difference to input
energy ratio, and compare it against the a-priori certificate.  The
empirical ratio is a lower bound on the true induced norm, so a sound
certificate must always dominate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from .balance import BalancedNonlinear, ReducedRealization
from .certify import ErrorCertificate
from .linalg import StiffnessError, integrate_ode

__all__ = [
    "ControlSystem",
    "Signal",
    "GainEstimate",
    "Verdict",
    "builtin_systems",
    "get_builtin",
    "input_ensemble",
    "signal_l2_norm",
    "estimate_gap",
    "judge_bound",
    "validate_certificate",
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
        zero = np.asarray(self.f(np.zeros(self.n), np.zeros(self.l)), float)
        if np.linalg.norm(zero) > 1e-12:
            raise ValueError(f"{self.name}: f(0, 0) must vanish, got norm {np.linalg.norm(zero):.3e}")
        hzero = np.atleast_1d(np.asarray(self.h(np.zeros(self.n)), float))
        if np.linalg.norm(hzero) > 1e-12:
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
        dictionary_hint={"kind": "identity"},
        gain_box=5.0,
    )


def _slow_manifold_f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.array(
        [
            -x[0] + 0.5 * np.tanh(u[0]),
            -2.0 * (x[1] - x[0] ** 2) + np.cos(x[0]) * np.tanh(u[0]),
        ]
    )


def _slow_manifold(exact: bool) -> ControlSystem:
    hint = (
        {"kind": "monomials", "exponents": [[1, 0], [0, 1], [2, 0]]}
        if exact
        else {"kind": "identity"}
    )
    return ControlSystem(
        name="slow_manifold" if exact else "slow_manifold_identity",
        n=2,
        l=1,
        p=2,
        f=_slow_manifold_f,
        h=lambda x: x[:2].copy(),
        lipschitz_u=float(np.sqrt(1.25)),
        dictionary_hint=hint,
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
        dictionary_hint={"kind": "identity"},
        gain_box=5.0,
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
        dictionary_hint={"kind": "identity"},
        gain_box=4.0,
    )


def builtin_systems() -> list[ControlSystem]:
    """The bundled example systems, from linear to non-affine control."""
    return [
        _lti6(),
        _slow_manifold(True),
        _slow_manifold(False),
        _tanh_first_order(),
        _mild_cubic(),
    ]


def get_builtin(name: str) -> ControlSystem:
    for sys_ in builtin_systems():
        if sys_.name == name:
            return sys_
    known = ", ".join(s.name for s in builtin_systems())
    raise KeyError(f"unknown builtin system {name!r}; known: {known}")


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


def signal_l2_norm(fn: Callable, horizon: float, n_points: int = 40_001) -> float:
    """Fine-quadrature L2 norm of a vector-valued signal."""
    ts = np.linspace(0.0, horizon, n_points)
    vals = fn(ts)
    sq = np.sum(vals * vals, axis=1)
    return float(np.sqrt(scipy.integrate.simpson(sq, x=ts)))


def _decayed_tone(l, amp, decay, freqs, phases):
    def fn(ts):
        ts = ts[:, None]
        return amp * np.exp(-decay * ts) * np.sin(freqs[None, :] * ts + phases[None, :])

    return fn


def _noise_burst(l, coeffs, freqs, phases, center, width):
    def fn(ts):
        ts = ts[:, None]
        window = np.exp(-(((ts - center) / width) ** 2))
        tones = np.zeros((ts.shape[0], l))
        for k in range(coeffs.shape[0]):
            tones += coeffs[k][None, :] * np.sin(freqs[k][None, :] * ts + phases[k][None, :])
        return window * tones

    return fn


def _chirp(l, amp, decay, omega0, rate, phases):
    def fn(ts):
        ts = ts[:, None]
        phase = omega0 * ts + 0.5 * rate * ts * ts
        return amp * np.exp(-decay * ts) * np.sin(phase + phases[None, :])

    return fn


def input_ensemble(
    l: int,
    horizon: float,
    count: int,
    seed: int = 0,
    freq_band: tuple[float, float] = (0.05, 12.0),
) -> list[Signal]:
    """Deterministic probing family: decayed tones, noise bursts, chirps.

    Tones sweep the frequency band on a log grid with slow decay, so their
    energy concentrates near one frequency; bursts and chirps cover the band
    broadly.  Every signal carries its fine-quadrature L2 norm.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = freq_band
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
                    l,
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
                    l,
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
                    l,
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

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "ensemble": self.ensemble,
            "per_signal": self.per_signal,
            "excluded": self.excluded,
        }


def _simulate_pair(
    system: ControlSystem,
    bn: BalancedNonlinear,
    red: ReducedRealization,
    signal: Signal,
    tol: float,
    n_grid: int,
):
    grid = np.linspace(0.0, signal.horizon, n_grid)

    def full_field(t, x):
        return np.asarray(system.f(x, signal(t)), float)

    def reduced_field(t, z):
        return np.asarray(bn.f_reduced(z, signal(t)), float)

    _, xs = integrate_ode(full_field, np.zeros(system.n), (0.0, signal.horizon), tol=tol, t_eval=grid)
    _, zs = integrate_ode(
        reduced_field, np.zeros(red.order), (0.0, signal.horizon), tol=tol, t_eval=grid
    )
    y_full = np.stack([np.atleast_1d(np.asarray(system.h(x), float)) for x in xs])
    y_red = zs @ red.c_r.T
    diff = y_full - y_red
    return float(np.sqrt(scipy.integrate.simpson(np.sum(diff * diff, axis=1), x=grid)))


def estimate_gap(
    system: ControlSystem,
    bn: BalancedNonlinear,
    red: ReducedRealization,
    ensemble: Sequence[Signal],
    tol: float = 1e-8,
    n_grid: int = 2001,
) -> GainEstimate:
    """Empirical lower bound on the full-vs-reduced H-infinity error.

    Both systems start from rest.  Signals whose integration fails are
    excluded and flagged; a clean validation verdict requires zero
    exclusions.
    """
    per_signal = []
    excluded = []
    value = 0.0
    for signal in ensemble:
        try:
            l2 = _simulate_pair(system, bn, red, signal, tol, n_grid)
        except (StiffnessError, ValueError) as exc:
            excluded.append({"signal": signal.name, "error": str(exc)})
            continue
        ratio = l2 / signal.l2_norm
        per_signal.append({"signal": signal.name, "ratio": float(ratio)})
        value = max(value, ratio)

    description = f"{len(ensemble)} signals on [0, {ensemble[0].horizon:g}]" if ensemble else "empty"
    return GainEstimate(value=float(value), per_signal=per_signal, ensemble=description, excluded=excluded)


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking an empirical gain against its certificate."""

    status: str  # PASS | FAIL | SKIPPED-SMALL-GAIN
    tightness: float | None
    empirical: float
    bound: float | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "tightness": None if self.tightness is None else float(self.tightness),
            "empirical": float(self.empirical),
            "bound": None if self.bound is None else float(self.bound),
        }


def judge_bound(
    bound: float | None, empirical: float, excluded: int, cushion: float = 1e-6
) -> tuple[str, float | None]:
    """Shared verdict rule: PASS needs the bound honored and zero exclusions."""
    if bound is None:
        return "SKIPPED-SMALL-GAIN", None
    ok = empirical <= bound + cushion and excluded == 0
    tightness = empirical / bound if bound > 0 else None
    return ("PASS" if ok else "FAIL"), tightness


def validate_certificate(
    cert: ErrorCertificate, est: GainEstimate, cushion: float = 1e-6
) -> Verdict:
    """PASS when the measured gap stays below the certified bound.

    The cushion absorbs integration and quadrature error; an unbounded
    certificate is skipped rather than judged.
    """
    status, tightness = judge_bound(
        cert.total_bound, est.value, len(est.excluded), cushion
    )
    return Verdict(
        status=status,
        tightness=tightness,
        empirical=est.value,
        bound=cert.total_bound,
    )
