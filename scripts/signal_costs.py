"""Per-signal cost of one benchmark job's probe-signal solves.

Usage (from the repository root):

    python3 scripts/signal_costs.py lti6
    python3 scripts/signal_costs.py expr_lift --seed 3

Runs the named job of ``perfbench/workloads.py`` (a job that simulates) at
config seed ``--seed`` in a temporary directory, and solves its probe
signals in this process, one after the other.  For each signal it prints the
ODE right-hand-side evaluations (``nfev``), LSODA's accepted steps, the
distinct times the field was evaluated at, the input evaluations (calls to
the signal's one-point form ``Signal.point``) with their mean CPU time per
evaluation in µs, the CPU time of the solve, the mean CPU time in µs of one
call of the whole stacked field (with ``integrate_ode``'s finiteness check),
and the ``bn.f_reduced`` calls with their mean CPU time per call in µs.  The counts
repeat exactly from run to run; the CPU times do not.  Then comes the mean
CPU time per field call over all signals, and last the critical paths of the
same solves handed out to two workers, each next signal to the worker that
frees first, in input order and in descending ``peak_freq`` order.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def find_job(name: str):
    from workloads import WORKLOADS, workload_jobs

    for workload in WORKLOADS:
        for job in workload_jobs(workload):
            if job.name == name and job.simulate:
                return job
    raise SystemExit(f"no simulating benchmark job named {name!r}")


def critical_path(costs: list, workers: int = 2) -> float:
    """Finish time of the last solve when ``costs`` are handed out in order,
    each to the worker that frees first."""
    free = [0.0] * workers
    for cost in costs:
        heapq.heappush(free, heapq.heappop(free) + cost)
    return max(free)


def signal_costs(system, bn, orders, ensemble, tol) -> tuple[list, list]:
    """Each signal's counts and solve CPU time, and its trajectories, solved
    in this process."""
    import scipy.integrate

    from koopgram import harness

    odeint = scipy.integrate.odeint
    rows, trajectories = [], []
    for signal in ensemble:
        row = {"signal": signal.name, "peak_freq": signal.peak_freq,
               "nfev": 0, "steps": 0, "times": set(), "inputs": 0, "inputs_s": 0.0,
               "field_s": 0.0, "reduced": 0, "reduced_s": 0.0}

        def point(t, _point=signal.point):
            start = time.process_time()
            try:
                return _point(t)
            finally:
                row["inputs_s"] += time.process_time() - start
                row["inputs"] += 1

        def f_reduced(zs, u, _f=bn.f_reduced):
            start = time.process_time()
            try:
                return _f(zs, u)
            finally:
                row["reduced_s"] += time.process_time() - start
                row["reduced"] += 1

        def counted_odeint(field, *args, **kwargs):
            def counted(t, x):
                row["times"].add(t)
                start = time.process_time()
                try:
                    return field(t, x)
                finally:
                    row["field_s"] += time.process_time() - start

            y, info = odeint(counted, *args, **kwargs)
            row["nfev"] += int(info["nfe"][-1])
            row["steps"] += int(info["nst"][-1])
            return y, info

        counted = dataclasses.replace(signal, point=point)
        row["inputs"], row["inputs_s"] = 0, 0.0  # construction checks the point form
        with mock.patch.object(scipy.integrate, "odeint", counted_odeint):
            start = time.process_time()
            traj = harness._simulate_signal(system, dataclasses.replace(bn, f_reduced=f_reduced), orders,
                                            counted, tol)
            row["cpu_s"] = time.process_time() - start
        row["times"] = len(row["times"])
        rows.append(row)
        trajectories.append(traj)
    return rows, trajectories


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", help="name of a simulating job, such as lti6 or expr_lift")
    parser.add_argument("--seed", type=int, default=0, help="config seed (default 0)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import job_config

    from koopgram import pipeline

    job = find_job(args.job)
    captured = {}

    def simulate_ensemble(system, bn, orders, ensemble, tol):
        captured["rows"], trajectories = signal_costs(system, bn, list(dict.fromkeys(orders)), ensemble, tol)
        return trajectories

    with tempfile.TemporaryDirectory() as out:
        config = job_config(job, args.seed, Path(out))
        for stage in (pipeline.stage_fit_koopman, pipeline.stage_decompose, pipeline.stage_balance):
            stage(config)
        with mock.patch.object(pipeline, "simulate_ensemble", simulate_ensemble):
            pipeline.stage_simulate(config)
    rows = captured["rows"]

    print(f"{job.name} seed {args.seed}, orders {list(job.orders)}")
    print(f"{'signal':<10}{'peak_freq':>10}{'nfev':>8}{'steps':>8}{'times':>8}{'inputs':>8}{'us/input':>9}"
          f"{'cpu_s':>9}{'us/field':>9}{'reduced':>9}{'us/call':>9}")
    for r in rows:
        per_input = 1e6 * r["inputs_s"] / max(r["inputs"], 1)
        per_field = 1e6 * r["field_s"] / max(r["nfev"], 1)
        per_call = 1e6 * r["reduced_s"] / max(r["reduced"], 1)
        print(f"{r['signal']:<10}{r['peak_freq']:>10.4f}{r['nfev']:>8}{r['steps']:>8}"
              f"{r['times']:>8}{r['inputs']:>8}{per_input:>9.2f}{r['cpu_s']:>9.4f}{per_field:>9.2f}"
              f"{r['reduced']:>9}{per_call:>9.2f}")
    field_us = 1e6 * sum(r["field_s"] for r in rows) / max(sum(r["nfev"] for r in rows), 1)
    input_us = 1e6 * sum(r["inputs_s"] for r in rows) / max(sum(r["inputs"] for r in rows), 1)
    print(f"field calls: {sum(r['nfev'] for r in rows)}, mean {field_us:.2f} us per call; "
          f"input evaluations: {sum(r['inputs'] for r in rows)}, mean {input_us:.2f} us each")
    costs = [r["cpu_s"] for r in rows]
    by_peak = sorted(range(len(rows)), key=lambda i: -rows[i]["peak_freq"])
    print(f"two-worker critical path: input order {critical_path(costs):.4f} s, "
          f"peak_freq order {critical_path([costs[i] for i in by_peak]):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
