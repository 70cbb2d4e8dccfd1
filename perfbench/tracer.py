"""In-memory spans and counters around koopgram's public layer boundaries.

``instrument`` replaces public functions at the name the calling module looks
up (``koopgram.certify.hinf_norm``, ``koopgram.harness.integrate_ode``,
``koopgram.pipeline.factor_error``, ...) with wrappers from this file, and
restores them on exit.  A span records (id, name, start, end, parent, job,
thread); a span opened on a pool thread with no open span of its own takes
the main thread's innermost open span as its parent.  Hot per-call kernels
(right-hand sides, dictionary and signal evaluations) get call timers instead
of spans, so they add no entries to the span list and do not count as child
time of any span.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


@contextmanager
def observe_sim_threads(names: set):
    """Record the name of every thread that runs a simulation integration.

    This adds one set insertion per integration and no timing, so it stays
    on in untimed and timed runs alike; ``sim_workers`` turns the names into
    the effective worker count.
    """
    from koopgram import harness

    original = harness.integrate_ode

    def integrate_ode(*args, **kwargs):
        names.add(threading.current_thread().name)
        return original(*args, **kwargs)

    harness.integrate_ode = integrate_ode
    try:
        yield names
    finally:
        harness.integrate_ode = original


def sim_workers(names: set) -> int | None:
    """Largest number of threads one simulation pool ran; None if none ran.

    Executor threads are named ``<pool>_<index>``; integrations on any other
    thread (no pool) count as one worker.
    """
    if not names:
        return None
    pools = defaultdict(set)
    for name in names:
        pool, _, index = name.rpartition("_")
        pools[pool if pool else name].add(index)
    return max(len(v) for v in pools.values())


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, job, thread)
        self.counts = Counter()  # (job, name) -> count
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._timer_tables = []
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------
    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job, threading.get_ident()))

    def count(self, name, k=1):
        """Add ``k`` to counter ``name`` of the current job."""
        with self._lock:
            self.counts[(self.job, name)] += k

    # -- call timers ---------------------------------------------------
    def _timers(self):
        table = getattr(self._local, "timers", None)
        if table is None:
            table = self._local.timers = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._timer_tables.append(table)
        return table

    def timed(self, fn, name):
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = self._timers()[name]
                cell[0] += 1
                cell[1] += _clock() - start

        return wrapper

    def timer_totals(self) -> dict:
        out = defaultdict(lambda: [0, 0.0])
        for table in self._timer_tables:
            for name, (calls, secs) in table.items():
                out[name][0] += calls
                out[name][1] += secs
        return dict(out)

    # -- derived -------------------------------------------------------
    def self_times(self) -> dict:
        """Per (job, span name): duration minus the union of child spans."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = defaultdict(float)
        for sid, name, start, end, _, job, _ in self.spans:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            totals[(job, name)] += (end - start) - covered
        return dict(totals)

    def inclusive_times(self) -> dict:
        """Per (job, span name): summed span duration."""
        totals = defaultdict(float)
        for _, name, start, end, _, job, _ in self.spans:
            totals[(job, name)] += end - start
        return dict(totals)

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "job", "thread")
        return [dict(zip(keys, s)) for s in self.spans]


def spanned(tracer, fn, name, after=None):
    """``fn`` inside a span; ``after(result, args, kwargs)`` may replace the result."""

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        tracer.count(f"{name}.calls")
        if after is not None:
            return after(result, args, kwargs)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, expr_names=()):
    """Install the benchmark's wrappers into koopgram for the duration."""
    # import_module, not ``from koopgram import``: the package re-exports a
    # function named ``balance`` that shadows the module
    balance, certify, gsvd, harness, koopman, pipeline = (
        importlib.import_module(f"koopgram.{name}")
        for name in ("balance", "certify", "gsvd", "harness", "koopman", "pipeline")
    )

    local = threading.local()
    saved = []

    def patch(module, attr, wrapper_factory):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def wrap_system(system):
        f = system.f
        expr_timer = tracer.timed(f, "expr.f_eval") if system.name in expr_names else f
        full_timer = tracer.timed(expr_timer, "harness.rhs_full")

        def f_traced(x, u):
            if getattr(local, "in_sim", False) and not getattr(local, "in_reduced", False):
                return full_timer(x, u)
            return expr_timer(x, u)

        return dataclasses.replace(system, f=f_traced)

    def wrap_bn(bn):
        timed = tracer.timed(bn.f_reduced, "harness.rhs_reduced")

        def f_reduced(z, u):
            local.in_reduced = True
            local.reduced_calls = getattr(local, "reduced_calls", 0) + 1
            try:
                return timed(z, u)
            finally:
                local.in_reduced = False

        return dataclasses.replace(bn, f_reduced=f_reduced)

    def wrap_dictionary(d):
        return dataclasses.replace(
            d,
            evaluate=tracer.timed(d.evaluate, "koopman.dict_evaluate"),
            jacobian=tracer.timed(d.jacobian, "koopman.dict_jacobian"),
        )

    def wrap_signals(signals):
        tracer.count("harness.signals", len(signals))
        return [dataclasses.replace(s, fn=tracer.timed(s.fn, "harness.signal_eval")) for s in signals]

    def integrate_factory(simulation):
        def factory(original):
            def integrate_ode(field, *args, **kwargs):
                calls = [0]

                def counted(t, x):
                    calls[0] += 1
                    return field(t, x)

                if simulation:
                    local.in_sim = True
                    local.reduced_calls = 0
                try:
                    with tracer.span("linalg.integrate_ode"):
                        return original(counted, *args, **kwargs)
                finally:
                    tracer.count("linalg.integrate_ode.calls")
                    tracer.count("linalg.ode_nfev", calls[0])
                    if simulation:
                        local.in_sim = False
                        kind = "reduced" if local.reduced_calls else "full"
                        tracer.count(f"harness.{kind}_sims")

            return integrate_ode

        return factory

    def on_factor_error(result, args, kwargs):
        if not kwargs.get("reduced", args[1] if len(args) > 1 else False):
            tracer.count("balance.factor_error_full.calls")
        return result

    def on_gains(result, args, kwargs):
        tracer.count("gsvd.gain_samples", int(result.sample_count or 0))
        return result

    def on_gap(result, args, kwargs):
        tracer.count("harness.signals_excluded", len(result.excluded))
        return result

    def span_factory(name, after=None):
        return lambda original: spanned(tracer, original, name, after)

    def result_factory(wrap):
        return lambda original: lambda *a, **k: wrap(original(*a, **k))

    patch(pipeline, "get_builtin", result_factory(wrap_system))
    patch(pipeline, "system_from_spec",
          span_factory("expr.system_from_spec", lambda r, a, k: wrap_system(r)))
    patch(pipeline, "build_dictionary", result_factory(wrap_dictionary))
    patch(pipeline, "balanced_nonlinear", result_factory(wrap_bn))
    patch(pipeline, "input_ensemble",
          span_factory("harness.input_ensemble", lambda r, a, k: wrap_signals(r)))
    patch(pipeline, "estimate_gap", span_factory("harness.estimate_gap", on_gap))
    patch(pipeline, "collect_trajectories", span_factory("koopman.collect_trajectories"))
    patch(pipeline, "fit_koopman", span_factory("koopman.fit_koopman"))
    patch(pipeline, "balance", span_factory("balance.balance"))
    patch(pipeline, "factor_error", span_factory("balance.factor_error", on_factor_error))
    patch(pipeline, "feedback_decomposition", span_factory("certify.feedback_decomposition"))
    for module in (pipeline, certify):
        patch(module, "hinf_norm", span_factory("linalg.hinf_norm"))
        patch(module, "input_to_state_norm", span_factory("certify.input_to_state_norm"))
    for module in (pipeline, gsvd):
        patch(module, "estimate_gains", span_factory("gsvd.estimate_gains", on_gains))
    patch(balance, "solve_lyapunov", span_factory("linalg.solve_lyapunov"))
    patch(koopman, "integrate_ode", integrate_factory(simulation=False))
    patch(harness, "integrate_ode", integrate_factory(simulation=True))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
