"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke_test.py

Runs every job of every workload once at reduced size (fewer probe signals
and gain samples) on seeds 0, 1 and 2 and requires no exception, no FAIL
verdict and a clean correctness gate.  Then runs every reduced job traced,
twice, each time with a fresh tracer, and requires the exact counts to
repeat.  Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import run
import tracer as tracing
from workloads import WORKLOADS, workload_jobs


def traced_counts(jobs, seed) -> tuple[dict, list]:
    tr, untraced, traced = tracing.Tracer(), [], []
    run.closed_loop(jobs, [seed], 0.0, run.traced_pair(tr, jobs, untraced, traced))
    metrics = run.layer_metrics(tr, traced, untraced)
    counts = {name: metrics[name][0] for name in run.EXACT_COUNTS}
    return counts, untraced + [r for _, r in traced]


def main() -> int:
    os.chdir(run.ROOT)
    run.import_koopgram()
    failures = []
    for workload in WORKLOADS:
        jobs = workload_jobs(workload, smoke=True)
        for seed in (0, 1, 2):
            results = []
            run.closed_loop(jobs, [seed], 0.0, lambda job, s: results.append(run.execute(job, s)))
            _, problems = run.gate(results)
            print(f"{workload} seed={seed}: {'; '.join(problems) or 'ok'}")
            failures += [f"{workload} seed={seed}: {p}" for p in problems]
        (first, results_a), (second, results_b) = traced_counts(jobs, 0), traced_counts(jobs, 0)
        _, problems = run.gate(results_a + results_b)
        print(f"{workload} traced counts: {first}")
        failures += [f"{workload} traced: {p}" for p in problems]
        if first != second:
            failures.append(f"{workload}: traced counts differ: {first} vs {second}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
