"""The control-system type, probing signals, and empirical certificate validation.

``ControlSystem`` is what ``expr.system_from_spec`` builds from a
declaration, the bundled examples included.  The empirical side of the
toolkit: simulate the full nonlinear system and its reduced counterpart
from rest under a deterministic family of square-integrable inputs,
measure the worst output-difference to input energy ratio, and compare it
against the a-priori certificate.  The empirical ratio is a lower bound on
the true induced norm, so a sound certificate must always dominate it.

``simulate_ensemble(system, bn, orders, ensemble, tol)`` makes one ODE solve
per probe signal, on the stacked state ``[x; z_r1; ...; z_rk]`` of the full
system and every reduced order: the input is evaluated once per step time
(LSODA's second field call at a time reuses it), one ``bn.f_reduced`` call
evaluates the field of every order, and all systems share one step
sequence, so the full-vs-reduced difference carries no integrator noise
from different step grids.  The field computes in Python floats, on one
list of the stacked state per call and one tuple of the input per step
time, and builds one array per call: on states of a few entries each numpy
call costs more than its arithmetic.  The input tuple comes from the
signal's one-point form ``Signal.point``, bit for bit its array ``fn``, or
from ``fn`` when it has none.  The plant's ``f`` is called through
``linalg.list_field``: a declared system's own list walk, any other
callable (a wrapper included) behind an array adapter.  The integrator
tests its local error component by component, so the stacked solve runs at
``tol`` and each block keeps the error control it would have alone; one
order's estimate still moves, at integration-error level, with the other
orders requested, as they change the shared steps.  When that solve
fails, the blocks are solved one by one: a failure of the full system
excludes the signal at every order, with its error text, and a failure of
one reduced order excludes the signal only at that order.
The signals share no state, so they are solved in forked worker
processes, one per usable CPU up to the signal count.  The parent sends
each worker one signal index at a time on the worker's own pipe, highest
``peak_freq`` first (longest processing time first), and collects the
pickled results in input order, so they are the same, bit for bit, as the
in-process loop's.  That loop runs instead on one usable
CPU, where ``os.fork`` is missing, and while a second thread is alive (a
fork then could copy a lock another thread holds).  No setting chooses
between them.
``estimate_gap(trajectories, red, ensemble)`` integrates nothing; it turns
the trajectories into one order's empirical gain.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe, wait
from signal import SIGKILL
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from .balance import BalancedNonlinear, ReducedRealization
from .linalg import StiffnessError, integrate_ode, list_field

__all__ = [
    "ControlSystem",
    "Signal",
    "GainEstimate",
    "input_ensemble",
    "signal_l2_norm",
    "Trajectories",
    "simulate_ensemble",
    "estimate_gap",
    "judge_bound",
]


@dataclass(frozen=True)
class ControlSystem:
    """Black-box dynamics with output map and control-sensitivity metadata.

    ``f(x, u)`` and ``h(x)`` take one point, or a ``(k, n)`` stack of states
    with a ``(k, l)`` stack of inputs, and then return one row per point,
    ``(k, n)`` or ``(k, p)``, bit for bit the rows of ``k`` single calls, as
    the systems ``expr.system_from_spec`` builds do.  The gain sampling,
    the fit and the simulated output call them on whole stacks; the
    simulation's field calls ``f`` per point, as ``linalg.list_field(f)``:
    a declared system's ``f`` is a ``linalg.ListField``, whose list form
    ``f.point`` takes the point as lists and returns a list, bit for bit the
    array call; any other ``f`` is called on arrays, its input read-only.

    ``linear`` is ``(a, b)`` when ``f(x, u) = a x + b u``, as a
    matrix-declared system sets it; reduced orders under a dictionary of the
    coordinates alone then fold the plant into their matrices and do not
    call ``f``.  Construction checks ``f`` against it at one fixed point, so
    a replaced ``f`` with other values must drop ``linear`` too.
    """

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
    linear: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        # written as not-below so that a NaN value is rejected too
        zero = np.asarray(self.f(np.zeros(self.n), np.zeros(self.l)), float)
        if not np.linalg.norm(zero) <= 1e-12:
            raise ValueError(f"{self.name}: f(0, 0) must vanish, got norm {np.linalg.norm(zero):.3e}")
        hzero = np.atleast_1d(np.asarray(self.h(np.zeros(self.n)), float))
        if not np.linalg.norm(hzero) <= 1e-12:
            raise ValueError(f"{self.name}: h(0) must vanish")
        if self.linear is not None:
            a, b = map(np.asarray, self.linear)
            x, u = np.cos(np.arange(1.0, self.n + 1)), np.sin(np.arange(1.0, self.l + 1))
            if not (a.shape == (self.n, self.n) and b.shape == (self.n, self.l) and np.allclose(
                    np.asarray(self.f(x, u), float), a @ x + b @ u, rtol=1e-9, atol=1e-12)):
                raise ValueError(f"{self.name}: f is not the declared linear a x + b u")

    def drift(self, x: np.ndarray) -> np.ndarray:
        """``f(x, 0)`` at one state or at each row of a stack of states."""
        return np.asarray(self.f(x, np.zeros(x.shape[:-1] + (self.l,))), float)


@dataclass(frozen=True)
class Signal:
    """Square-integrable input on [0, horizon] with its known L2 norm and
    ``peak_freq``, the highest angular frequency it carries (0 if unknown).

    ``point``, when set, is ``fn`` at one float time ``t``: the tuple of
    ``fn``'s row as Python floats (bit for bit in ``input_ensemble``), and
    the simulation evaluates the input through it instead of ``fn``.
    Construction checks it against ``fn`` at a few fixed times, so a
    replaced ``fn`` with other values must drop ``point`` too.  The
    simulation hands the system each value ``u`` read-only.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]  # (k,) times -> (k, l) values
    horizon: float
    l2_norm: float
    peak_freq: float = 0.0
    point: Callable[[float], tuple] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (self.l2_norm > 0.0 and np.isfinite(self.l2_norm)):
            raise ValueError(f"signal {self.name} must carry positive energy")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError("signal horizon must be positive and finite")
        if self.point is not None:
            # the solver may step past the horizon, so one time lies beyond it
            ts = self.horizon * np.array([0.0, 0.37, 0.81, 1.3])
            want = np.asarray(self.fn(ts), float)
            got = np.array([self.point(t) for t in ts.tolist()], float)
            if not (got.shape == want.shape and np.allclose(got, want, rtol=1e-9, atol=1e-12)):
                raise ValueError(f"signal {self.name}: point does not give the values of fn")

    def __call__(self, t: float) -> np.ndarray:
        return self.fn(np.asarray(t, float).reshape(1))[0]


# Simpson nodes of ``signal_l2_norm``, the band (rad/s) ``input_ensemble``
# sweeps, and the slack ``judge_bound`` leaves for integration and quadrature
L2_QUADRATURE_POINTS = 40_001
FREQ_BAND = (0.05, 12.0)
VERDICT_CUSHION = 1e-6


def signal_l2_norm(fn: Callable, horizon: float) -> float:
    """Fine-quadrature L2 norm of a vector-valued signal, evaluated in ten
    chunks of the nodes, so that its temporaries stay small."""
    ts = np.linspace(0.0, horizon, L2_QUADRATURE_POINTS)
    sq = np.concatenate([np.sum(v * v, axis=1) for v in map(fn, np.array_split(ts, 10))])
    return float(np.sqrt(scipy.integrate.simpson(sq, x=ts)))


# each signal writes its values once, as ``formula(t, sin, exp)``: the list
# of its channels at ``t``, one float or one column per channel, in the
# order the arithmetic runs.  ``_forms`` makes fn (numpy's sin and exp on a
# (k,) time array) and point (math.sin, which has numpy's bits, and numpy's
# exp of one float, since math.exp does not) from it, so the two agree bit
# for bit
def _forms(formula, peak):
    def fn(ts):
        return np.stack(formula(ts, np.sin, np.exp), axis=1)

    def point(t):
        return tuple(formula(t, math.sin, _float_exp))

    return fn, point, peak


def _float_exp(x):
    return float(np.exp(x))


def _decayed_tone(amp, decay, freqs, phases):
    channels = list(zip(freqs.tolist(), phases.tolist()))

    def formula(t, sin, exp):
        scale = amp * exp(-decay * t)
        return [scale * sin(f * t + p) for f, p in channels]

    return _forms(formula, float(freqs.max()))


def _noise_burst(coeffs, freqs, phases, center, width):
    channels = [list(zip(*c)) for c in zip(coeffs.T.tolist(), freqs.T.tolist(), phases.T.tolist())]

    # the tones added one after another; -0.0 is the exact identity of
    # addition, so the sum starts from the first tone's bits, its sign included
    def formula(t, sin, exp):
        d = (t - center) / width
        window = exp(-(d * d))
        values = []
        for tones in channels:
            total = -0.0
            for c, f, p in tones:
                total = total + c * sin(f * t + p)
            values.append(window * total)
        return values

    return _forms(formula, float(freqs.max()))


def _chirp(amp, decay, lo, hi, horizon, phases):
    # the angular frequency sweeps from lo at t = 0 to hi at the horizon
    rate = (hi - lo) / max(horizon, 1e-6)
    channels = phases.tolist()

    def formula(t, sin, exp):
        phase = lo * t + 0.5 * rate * t * t
        scale = amp * exp(-decay * t)
        return [scale * sin(phase + p) for p in channels]

    return _forms(formula, hi)


def input_ensemble(l: int, horizon: float, count: int, seed: int = 0) -> list[Signal]:
    """Deterministic probing family: decayed tones, noise bursts, chirps.

    Tones sweep ``FREQ_BAND`` on a log grid with slow decay, so their
    energy concentrates near one frequency; bursts and chirps cover the band
    broadly.  Every signal carries its fine-quadrature L2 norm.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    rng = np.random.default_rng(seed)
    lo, hi = FREQ_BAND
    n_chirps = count // 5
    n_bursts = count // 5
    n_tones = count - n_chirps - n_bursts
    tone_freqs = np.geomspace(max(lo, 1e-3), hi, n_tones)

    named = []  # (name, fn, point, peak_freq), drawing from rng in this order
    for i in range(n_tones):
        named.append((f"tone-{i}", *_decayed_tone(
            amp=rng.uniform(0.5, 1.5),
            decay=rng.uniform(0.1, 0.3),
            freqs=tone_freqs[i] * rng.uniform(0.95, 1.05, size=l),
            phases=rng.uniform(0, 2 * np.pi, size=l),
        )))
    for i in range(n_bursts):
        named.append((f"burst-{i}", *_noise_burst(
            coeffs=rng.uniform(-1.0, 1.0, size=(5, l)),
            freqs=rng.uniform(lo, hi, size=(5, l)),
            phases=rng.uniform(0, 2 * np.pi, size=(5, l)),
            center=rng.uniform(0.2, 0.5) * horizon,
            width=rng.uniform(0.05, 0.15) * horizon,
        )))
    for i in range(n_chirps):
        named.append((f"chirp-{i}", *_chirp(
            amp=rng.uniform(0.5, 1.2),
            decay=rng.uniform(0.05, 0.15),
            lo=lo, hi=hi, horizon=horizon,
            phases=rng.uniform(0, 2 * np.pi, size=l),
        )))
    signals = []
    for name, fn, point, peak in named:
        norm = signal_l2_norm(fn, horizon)
        if norm <= 1e-9:
            raise ValueError(f"signal {name} has no energy on the horizon")
        signals.append(Signal(name=name, fn=fn, horizon=horizon, l2_norm=norm, peak_freq=peak, point=point))
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
    """States of every block, solved together as one stacked ODE with
    ``u = signal(t)`` evaluated once per step time, so all blocks share one
    step sequence.  The field computes in Python floats: the stacked state
    becomes one list per call, the input one tuple per step time (from
    ``signal.point``, or from ``signal(t)`` when the signal has none), and
    the blocks' values one array per call.  LSODA evaluates the field twice
    at most step times; the second call reuses the last tuple.

    A block ``(rhs, dim)`` is one state of dimension ``dim`` with field
    ``rhs(state, u)``, which takes the state as a list of floats and the
    input as a tuple and returns a sequence of floats, as
    ``linalg.list_field`` does; a block ``(rhs, dims)`` with a list ``dims``
    is one state per entry, and ``rhs(states, u)`` returns one field per
    state, as ``BalancedNonlinear.f_reduced`` does for all reduced orders at
    once.  The result holds one state history per state, in order.  The
    integrator accepts a step only when every component's scaled local error
    is below 1, so each state is held to ``tol`` as if solved alone; the
    others can only shorten its steps, never loosen its control.
    """
    # per block: its field and its one slice of the stacked state, or the
    # list of its slices; a one-state block is called without a list, which
    # would cost it about 1 µs a step
    plan, parts, lo = [], [], 0
    for rhs, d in blocks:
        slices = []
        for dim in d if isinstance(d, list) else [d]:
            slices.append(slice(lo, lo + dim))
            lo += dim
        parts += slices
        plan.append((rhs, slices if isinstance(d, list) else slices[0]))

    point = signal.point or (lambda t: tuple(signal(t).tolist()))
    last = [None, None]  # the last step time and its input

    def field(t, s):
        if t != last[0]:
            last[:] = t, point(t)
        u, s = last[1], s.tolist()
        ds = []
        for rhs, part in plan:
            if isinstance(part, slice):
                ds += rhs(s[part], u)
                continue
            for d in rhs([s[p] for p in part], u):
                ds += d
        return np.array(ds)

    states = integrate_ode(field, np.zeros(lo), grid, tol)
    return [states[:, part] for part in parts]


def _solve_alone(block, signal: Signal, grid: np.ndarray, tol: float):
    """The state history of a one-state block solved alone, or the error text
    of its failed solve."""
    try:
        return _integrate([block], signal, grid, tol)[0]
    except (StiffnessError, ValueError) as exc:
        return str(exc)


def _simulate_signal(
    system: ControlSystem, bn: BalancedNonlinear, orders: list, signal: Signal, tol: float,
) -> Trajectories:
    """One signal's ``Trajectories``: the stacked solve, or block by block if it fails."""
    plant = (list_field(system.f), system.n)
    grid = np.linspace(0.0, signal.horizon, _N_GRID)
    try:
        states = _integrate([plant, (bn.f_reduced, orders)], signal, grid, tol)
    except (StiffnessError, ValueError):
        # block by block, so that a failing block cannot exclude the others
        states = [_solve_alone(plant, signal, grid, tol)]
        if not isinstance(states[0], str):
            states += [_solve_alone((bn.f_reduced, [r]), signal, grid, tol) for r in orders]
    xs = states[0]
    full = xs if isinstance(xs, str) else np.asarray(system.h(xs), float).reshape(len(xs), -1)
    return Trajectories(grid=grid, full=full, reduced=dict(zip(orders, states[1:])))


def _usable_cpus() -> int:
    """CPUs this process may run on; tests patch it to force or forbid the fan-out."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_ensemble(
    system: ControlSystem, bn: BalancedNonlinear, orders: Sequence[int],
    ensemble: Sequence[Signal], tol: float,
) -> list[Trajectories]:
    """Full system and every reduced order from rest, one stacked solve per signal.

    If that solve fails, the full system is solved alone; if it fails too,
    its error text excludes the signal at every order.  Otherwise each order
    is solved alone, and only the orders that fail are excluded.  The
    signals are solved in forked workers (see the module docstring); an
    exception a worker raises is raised here, and a worker that dies raises
    ``RuntimeError``.
    """
    orders = list(dict.fromkeys(orders))

    def solve(signal):
        return _simulate_signal(system, bn, orders, signal, tol)

    workers = min(_usable_cpus(), len(ensemble))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [solve(signal) for signal in ensemble]
    return _fan_out(solve, ensemble, workers)


def _fan_out(solve: Callable, ensemble: Sequence[Signal], workers: int) -> list:
    """``[solve(s) for s in ensemble]``, solved by ``workers`` forked children.

    On each child's own pipe the parent sends a signal index, reads the
    pickled ``("ok", result)`` or ``("error", exception)`` answer and sends
    the next index, or closes the pipe when none is left, so the child exits
    while the others work; ``solve`` is inherited, never pickled.  Indices go
    out in descending ``peak_freq``, ties in input order: a higher frequency
    takes more steps, and the dearest solves first shorten the slowest
    child's share.  Raises
    the exception of the first signal, in input order, whose solve raised,
    as the in-process loop would, and ``RuntimeError`` when a child's pipe
    ends before it answers.  Every child is reaped before this returns or
    raises; on any exception the children still running are killed first.
    """
    pids, held, answers = {}, {}, {}  # pipe -> pid until reaped; pipe -> index it holds
    indices = iter(sorted(range(len(ensemble)), key=lambda i: -ensemble[i].peak_freq))

    def hand_out(pipe):
        i = next(indices, None)
        if i is None:
            pipe.close()  # the child's recv ends, and it exits
        else:
            held[pipe] = i
            with suppress(ConnectionError):  # a child that died idle shows at its end of file
                pipe.send(i)

    try:
        for _ in range(workers):
            ours, theirs = Pipe()
            with theirs:  # closes the parent's copy, also when the fork fails
                try:
                    pid = os.fork()
                except OSError:
                    ours.close()
                    raise
                if pid == 0:
                    try:
                        for pipe in (ours, *pids):
                            pipe.close()
                        _work(solve, ensemble, theirs)
                    finally:
                        os._exit(1)
            pids[ours] = pid
            hand_out(ours)
        while held:
            for pipe in wait(list(held)):
                i = held.pop(pipe)
                try:
                    answers[i] = pipe.recv()
                except (EOFError, OSError):
                    # the child has exited before it answered in full
                    _, status = os.waitpid(pids.pop(pipe), 0)
                    pipe.close()
                    code = os.waitstatus_to_exitcode(status)
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    raise RuntimeError(f"a probe-signal worker {how} under probe signal {ensemble[i].name}")
                hand_out(pipe)
            failed = [i for i, (kind, _) in answers.items() if kind == "error"]
            if failed and all(i in answers for i in range(min(failed))):
                raise answers[min(failed)][1]
        return [answers[i][1] for i in range(len(ensemble))]
    finally:
        for pipe, pid in pids.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _work(solve: Callable, ensemble: Sequence[Signal], pipe: Connection):
    """A forked child's loop: answer each signal index the parent sends, until
    ``recv`` raises ``EOFError`` (the parent closed the pipe or is gone)."""
    while True:
        i = pipe.recv()
        try:
            answer = pickle.dumps(("ok", solve(ensemble[i])))
        except Exception as exc:
            try:
                answer = pickle.dumps(("error", exc))
                pickle.loads(answer)
            except Exception:
                # an exception that does not survive pickling keeps its text
                answer = pickle.dumps(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
        pipe.send_bytes(answer)


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
