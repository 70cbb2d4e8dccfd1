"""koopgram benchmark: closed loop, one client, jobs back to back.

Usage (from the repository root):

    python3 perfbench/run.py --workload validate-matrix --seed 0 --seconds 35 --trace 0

Each run measures set-up in fresh interpreters, then runs the workload's jobs
in a fixed order, cycling, each job after the previous one returns, until
``--seconds`` have passed and every job has run at least once.  Every job's
artifacts are checked; the last stdout line is one JSON object with
``correct``, ``attempted`` (reduction orders), ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, with times adjusted to a
nominal host speed by a reference computation timed next to every job;
``--trace 1`` runs each job untraced and then traced, and reports per-layer
metrics (see README.md).
Exit code 1 when the correctness gate trips, 2 when the program cannot be
set up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = Path(".perfbench_out")
SETUP_SAMPLES = 3
# reference duration that defines one host-speed-adjusted second
REF_NOMINAL_S = 0.05

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    CERTIFY_STAGES,
    FULL_STAGES,
    WORKLOADS,
    JobResult,
    collect_result,
    config_seeds,
    job_config,
    reset_dir,
    run_job,
    stage_functions,
    workload_jobs,
)

clock = time.perf_counter
_REF_A = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -1.5]])


def speed_reference() -> float:
    """Wall time of a fixed computation that does not involve koopgram.

    RK4 steps of a 3-state ODE on small numpy arrays: Python calls and
    small-array arithmetic, the kind of work koopgram's stages do.  Timed
    next to every job, it tracks how fast the host runs such code at that
    moment, which on a shared host drifts by tens of percent within minutes.
    """
    start = clock()
    x, h = np.array([0.1, -0.2, 0.3]), 0.01

    def f(x):
        return _REF_A @ x + 0.5 * np.tanh(x[::-1])

    for _ in range(1500):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return clock() - start


def host_reference(simulates: bool) -> float:
    """Reference time per pass of ``speed_reference``, measured the way the workload runs.

    A workload that simulates runs its probe signals on two pool threads
    that share the GIL and hop between CPUs, and a single-thread reference
    tracks its jobs no better than their raw wall time does.  For it, the
    reference is the mean of one pass on this thread, two passes run at once
    on two threads (halved) and one pass pinned to each usable CPU; the
    longer sample also averages over the second-scale swings of a shared
    host.  The affinity is restored before the next job, so the pool keeps
    every CPU.  A workload that does not simulate runs on one thread, and one
    pass tracks it.
    """
    if not simulates:
        return speed_reference()
    single = speed_reference()
    threads = [threading.Thread(target=speed_reference) for _ in range(2)]
    start = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    pair = (clock() - start) / 2.0
    cpus = os.sched_getaffinity(0)
    pinned = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            pinned.append(speed_reference())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean([single, pair, statistics.fmean(pinned)])


def adjusted(wall: float, refs) -> float:
    """``wall`` in seconds at the host speed where the reference takes REF_NOMINAL_S."""
    return wall * REF_NOMINAL_S / statistics.fmean(refs)


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import koopgram and resolve systems.

    Not host-speed adjusted: set-up is mostly imports (file reads, unmarshal,
    loading extension modules), which the reference computation does not
    track; adjusting made the samples noisier.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(clock() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr.strip()}")
        located = Path(json.loads(proc.stdout)["koopgram"]).resolve()
        if ROOT / "src" not in located.parents:
            raise SystemExit(f"koopgram was imported from {located}, not from {ROOT / 'src'}")
    return samples


def import_koopgram() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import koopgram  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import koopgram from {ROOT / 'src'}: {exc}")


def git_commit() -> str | None:
    """HEAD of a git checkout at the root, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args, seeds, workers) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "config_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "sim_workers": workers,
        "KOOPGRAM_THREADS": os.environ.get("KOOPGRAM_THREADS"),
        "git_commit": git_commit(),
        "client": "closed loop, 1 client",
    }


def execute(job, seed, stages=None) -> JobResult:
    """Run one job in a clean output directory and judge its artifacts."""
    out = OUT_ROOT / job.name
    reset_dir(out)
    config = job_config(job, seed, out)
    error = None
    t0 = clock()
    try:
        run_job(job, config, stages)
    except Exception as exc:  # a job that raises fails its orders; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    result = collect_result(job, out, clock() - t0, error)
    result.seed = seed
    return result


def closed_loop(jobs, seeds, seconds, run_one) -> None:
    """Call ``run_one(job, config seed)`` on the jobs in workload order, cycling, one at a time.

    Pass ``p`` runs job ``i`` with ``seeds[(p + i) % len(seeds)]``, so even
    a partial pass spreads over the seeds.  Stops after the job that ends
    past ``seconds``, but not before every job has run once.
    """
    start = clock()
    for n in itertools.count():
        p, i = divmod(n, len(jobs))
        run_one(jobs[i], seeds[(p + i) % len(seeds)])
        if n + 1 >= len(jobs) and clock() - start >= seconds:
            return


def by_job(results) -> dict:
    """JobResults grouped by job name, in first-run order."""
    groups = {}
    for r in results:
        groups.setdefault(r.job, []).append(r)
    return groups


def job_means(results, attr="wall_s") -> dict:
    """Mean time of each job over its runs.

    A mean, not a median: a job's runs cycle config seeds whose work differs,
    and the mean over them moves less between runs than the one draw a
    median of few runs picks.
    """
    return {
        name: statistics.fmean(getattr(r, attr) for r in rs) for name, rs in by_job(results).items()
    }


def geomean(values) -> float | None:
    values = [v for v in values if v > 0.0]
    if not values:
        return None
    return math.exp(statistics.fmean(math.log(v) for v in values))


def gate(results) -> tuple[dict, list[str]]:
    """Correctness gate over every job of a run, and the per-job digests."""
    problems = []
    for r in results:
        if r.error is not None:
            problems.append(f"{r.job}: raised {r.error}")
        if "FAIL" in r.verdicts:
            problems.append(f"{r.job}: FAIL verdict in {r.verdicts}")
        problems.extend(r.problems)
    digests = defaultdict(set)
    for r in results:
        if r.digest is not None:
            digests[f"{r.job} seed={r.seed}"].add(r.digest)
    digests = {key: sorted(seen) for key, seen in digests.items()}
    for key, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{key}: {len(seen)} different artifact digests in one run")
    return digests, problems


def e2e_metrics(results, setup, refs) -> tuple[dict, dict]:
    """End-to-end metrics (gated) and further figures (reported).

    The loop may stop part-way through the job list, so times are taken per
    job (mean over its runs) and combined over the workload's jobs, each
    job weighted once; the quality figures come from each job's first run.
    The gated job times are host-speed adjusted; the raw wall times are
    reported next to them.
    """
    groups = by_job(results)
    first = [rs[0] for rs in groups.values()]
    orders = sum(r.orders for r in first)
    done = sum(rs[0].orders * sum(r.error is None for r in rs) / len(rs) for rs in groups.values())
    attempted = sum(r.orders for r in results)

    def timing(attr):
        means = job_means(results, attr)
        return 60.0 * done / sum(means.values()), geomean(means.values())

    per_min, job_gm = timing("adjusted_s")
    raw_per_min, raw_job_gm = timing("wall_s")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "orders_per_min": (per_min, "1/min"),
        "job_s_mean_gm": (job_gm, "s"),
        "finite_cert_ratio": (sum(r.finite for r in first) / orders, "ratio"),
        "bound_geomean": (geomean(b for r in first for b in r.bounds), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "raw.orders_per_min": (raw_per_min, "1/min"),
        "raw.job_s_mean_gm": (raw_job_gm, "s"),
        "reference_s_p50": (statistics.median(refs), "s"),
        "failed_ratio": (sum(r.failed_orders for r in results) / attempted, "ratio"),
        "tightness_geomean": (geomean(t for r in first for t in r.tightness), "1"),
        "jobs_run": (len(results), "count"),
    }
    return metrics, extra


LAYER_SPANS = {
    # metric -> span whose self time per job it reports
    "harness.estimate_gap_s": "harness.estimate_gap",
    "harness.input_ensemble_s": "harness.input_ensemble",
    "linalg.hinf_norm_s": "linalg.hinf_norm",
    "linalg.solve_lyapunov_s": "linalg.solve_lyapunov",
    "linalg.integrate_ode_s": "linalg.integrate_ode",
    "balance.balance_s": "balance.balance",
    "balance.factor_error_s": "balance.factor_error",
    "certify.feedback_decomposition_s": "certify.feedback_decomposition",
    "gsvd.estimate_gains_s": "gsvd.estimate_gains",
    "koopman.collect_trajectories_s": "koopman.collect_trajectories",
    "koopman.fit_koopman_s": "koopman.fit_koopman",
    "expr.system_from_spec_s": "expr.system_from_spec",
}
LAYER_COUNTS = {
    # metric -> counter reported per job
    "harness.signals_excluded": "harness.signals_excluded",
    "linalg.hinf_norm_calls": "linalg.hinf_norm.calls",
    "linalg.integrate_ode_calls": "linalg.integrate_ode.calls",
    "balance.factor_error_calls": "balance.factor_error.calls",
    "balance.factor_error_full_calls_per_job": "balance.factor_error_full.calls",
    "certify.input_to_state_norm_calls": "certify.input_to_state_norm.calls",
    "gsvd.gain_samples": "gsvd.gain_samples",
}
LAYER_TIMERS = {
    # metric -> call timer reported in microseconds per call
    "harness.rhs_full_us": "harness.rhs_full",
    "harness.rhs_reduced_us": "harness.rhs_reduced",
    "harness.signal_eval_us": "harness.signal_eval",
    "koopman.dict_evaluate_us": "koopman.dict_evaluate",
    "koopman.dict_jacobian_us": "koopman.dict_jacobian",
    "expr.f_eval_us": "expr.f_eval",
}
# counts that repeat exactly between traced runs of the same code and seed
EXACT_COUNTS = (
    "harness.full_sims_per_signal",
    "balance.factor_error_full_calls_per_job",
    "linalg.hinf_norm_calls",
    "linalg.ode_nfev_per_call",
)


def layer_metrics(tr: tracing.Tracer, traced, untraced) -> dict:
    """Per-layer metrics of the traced jobs, per job of the workload.

    ``traced`` holds ``(tracer job id, JobResult)`` pairs.  A per-job value is
    averaged over the runs of each job, then over the workload's jobs (each
    job weighted once), so it does not depend on where the loop stopped.
    """
    runs = defaultdict(list)  # job name -> tracer job ids
    for job_id, r in traced:
        runs[r.job].append(job_id)

    def per_job(table, name) -> float:
        return statistics.fmean(
            statistics.fmean(table.get((j, name), 0) for j in ids) for ids in runs.values()
        )

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    own, incl, counts = tr.self_times(), tr.inclusive_times(), tr.counts
    timers = tr.timer_totals()
    m = {}
    for stage in FULL_STAGES:
        m[f"pipeline.{stage}_s"] = (per_job(incl, f"pipeline.{stage}"), "s/job")
    sizes = {(j, "bytes"): r.artifact_bytes for j, r in traced}
    m["pipeline.artifact_bytes"] = (per_job(sizes, "bytes"), "B/job")
    for metric, name in LAYER_SPANS.items():
        m[metric] = (per_job(own, name), "s/job")
    for metric, name in LAYER_COUNTS.items():
        m[metric] = (per_job(counts, name), "count/job")
    for metric, name in LAYER_TIMERS.items():
        calls, secs = timers.get(name, (0, 0.0))
        m[metric] = (ratio(1e6 * secs, calls), "us")
    m["harness.full_sims_per_signal"] = (
        ratio(per_job(counts, "harness.full_sims"), per_job(counts, "harness.signals")), "count"
    )
    m["linalg.ode_nfev_per_call"] = (
        ratio(per_job(counts, "linalg.ode_nfev"), per_job(counts, "linalg.integrate_ode.calls")),
        "count",
    )
    gaps = {s[0] for s in tr.spans if s[1] == "harness.estimate_gap"}
    busy = defaultdict(float)
    spans = defaultdict(int)
    for _, name, start, end, parent, job, _ in tr.spans:
        spans[(job, "spans")] += 1
        if name == "linalg.integrate_ode" and parent in gaps:
            busy[(job, "busy")] += end - start
    m["harness.pool_overlap"] = (
        ratio(per_job(busy, "busy"), per_job(incl, "harness.estimate_gap")), "ratio"
    )
    traced_gm = geomean(job_means([r for _, r in traced]).values())
    untraced_gm = geomean(job_means(untraced).values())
    m["trace.job_s_mean_gm"] = (traced_gm, "s")
    m["trace.untraced_job_s_mean_gm"] = (untraced_gm, "s")
    m["trace.overhead_s"] = (traced_gm - untraced_gm, "s")
    m["trace.spans_per_job"] = (per_job(spans, "spans"), "count/job")
    return m


def traced_pair(tr, jobs, untraced, traced):
    """``run_one`` for the traced run: each job untraced, then traced."""
    names = FULL_STAGES if jobs[0].simulate else CERTIFY_STAGES
    stages = [(n, tracing.spanned(tr, fn, f"pipeline.{n}")) for n, fn in stage_functions(names)]
    expr_names = {j.name for j in jobs if isinstance(j.system, dict)}

    def run_one(job, seed):
        untraced.append(execute(job, seed))
        tr.job = f"{len(traced)}-{job.name}"
        with tracing.instrument(tr, expr_names):
            traced.append((tr.job, execute(job, seed, stages)))
        tr.job = None

    return run_one


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "koopgram" / "__init__.py").is_file():
        print(f"error: no koopgram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_seconds(args.workload)
    import_koopgram()
    jobs = workload_jobs(args.workload)
    seeds = config_seeds(args.workload, args.seed)
    if args.trace:
        # one config seed, so that the exact counts of a traced run repeat
        # between runs however many jobs fit in --seconds
        seeds = seeds[:1]
    untraced, traced, refs = [], [], []
    simulates = jobs[0].simulate

    def timed_job(job, seed):
        refs.append(host_reference(simulates))
        untraced.append(execute(job, seed))

    thread_names = set()
    with tracing.observe_sim_threads(thread_names):
        if args.trace:
            tr = tracing.Tracer()
            closed_loop(jobs, seeds, args.seconds, traced_pair(tr, jobs, untraced, traced))
        else:
            closed_loop(jobs, seeds, args.seconds, timed_job)
            refs.append(host_reference(simulates))
    for r, around in zip(untraced, zip(refs, refs[1:])):
        r.adjusted_s = adjusted(r.wall_s, around)
    results = untraced + [r for _, r in traced]
    digests, problems = gate(results)
    if args.trace:
        metrics, extra = layer_metrics(tr, traced, untraced), {}
    else:
        metrics, extra = e2e_metrics(untraced, setup, refs)
    record = {
        "provenance": provenance(args, seeds, tracing.sim_workers(thread_names)),
        "correct": not problems,
        "problems": problems,
        "digests": digests,
        "jobs": [
            {"job": r.job, "seed": r.seed, "traced": i >= len(untraced), "wall_s": r.wall_s,
             "adjusted_s": r.adjusted_s, "orders": r.orders, "digest": r.digest,
             "verdicts": r.verdicts, "error": r.error}
            for i, r in enumerate(results)
        ],
        "setup_samples_s": setup,
        "reference_s": refs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with (OUT_ROOT / f"{stem}-spans.jsonl").open("w") as fh:
            for span in tr.span_records():
                fh.write(json.dumps(span) + "\n")
            counts = [{"job": j, "name": n, "count": c} for (j, n), c in tr.counts.items()]
            fh.write(json.dumps({"counts": counts, "timers": tr.timer_totals()}) + "\n")

    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for job in record["jobs"]:
        print(f"# job {job['job']} seed={job['seed']} traced={job['traced']} wall_s={job['wall_s']:.3f} "
              f"orders={job['orders']} digest={(job['digest'] or '-')[:16]} {job['verdicts']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"# {name} = {value} {unit}")
    for problem in problems:
        print(f"# GATE: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.orders for r in results),
        "failed": sum(r.failed_orders for r in results),
        "metrics": record["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
