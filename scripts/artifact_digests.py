"""sha256 of every artifact of every benchmark job, to check byte identity.

Usage (from the repository root):

    python3 scripts/artifact_digests.py > before.json
    python3 scripts/artifact_digests.py --compare before.json
    python3 scripts/artifact_digests.py --against HEAD > /dev/null

Runs each job of ``perfbench/workloads.py`` at config seeds 0 and 1 in one
fixed output directory (the path is part of ``report.json``), and prints a
JSON object mapping ``workload/job/seed<s>/<artifact>`` to the artifact's
sha256.  ``--src`` imports koopgram from another source tree, so the digests
of two checkouts can be compared with the same jobs.  ``--against <rev>``
exports that git revision's ``src/`` with ``git archive`` into a temporary
directory, digests it in a subprocess through ``--src`` and compares the
result with the working tree, so the byte-identity check is one command.
With ``--compare`` or ``--against`` the changed keys and an
``<N> artifacts, <M> differ`` summary go to stderr, and the exit code is 1
when any key differs or is missing on either side.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
OUT_DIR = Path(".artifact_digests")


def digests(out_dir: Path) -> dict:
    from workloads import WORKLOADS, job_config, reset_dir, run_job, workload_jobs

    result = {}
    for workload in WORKLOADS:
        for job in workload_jobs(workload):
            for seed in SEEDS:
                reset_dir(out_dir)
                run_job(job, job_config(job, seed, out_dir))
                for path in sorted(out_dir.iterdir()):
                    key = f"{workload}/{job.name}/seed{seed}/{path.name}"
                    result[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def revision_digests(rev: str) -> dict:
    """Digests of git revision ``rev``'s ``src/``, run with this tree's jobs."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, stdout=subprocess.PIPE
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        out = subprocess.run(
            [sys.executable, __file__, "--src", str(Path(tmp) / "src")],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree holding koopgram")
    baseline = parser.add_mutually_exclusive_group()
    baseline.add_argument("--compare", default=None, help="digest JSON to compare against")
    baseline.add_argument(
        "--against", default=None, help="git revision whose src/ to digest and compare against"
    )
    args = parser.parse_args(argv)

    before = None
    if args.against is not None:
        before = revision_digests(args.against)
    elif args.compare is not None:
        before = json.loads(Path(args.compare).read_text())
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    current = digests(OUT_DIR)
    print(json.dumps(current, sort_keys=True, indent=2))
    if before is None:
        return 0
    differ = sorted(k for k in set(before) | set(current) if before.get(k) != current.get(k))
    for key in differ:
        print(f"differs: {key}", file=sys.stderr)
    print(f"{len(current)} artifacts, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
