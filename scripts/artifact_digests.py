"""sha256 of every artifact of every benchmark job, to check byte identity.

Usage (from the repository root):

    python3 scripts/artifact_digests.py > before.json
    python3 scripts/artifact_digests.py --compare before.json

Runs each job of ``perfbench/workloads.py`` at config seeds 0 and 1 in one
fixed output directory (the path is part of ``report.json``), and prints a
JSON object mapping ``workload/job/seed<s>/<artifact>`` to the artifact's
sha256.  ``--src`` imports koopgram from another source tree, so the digests
of two checkouts can be compared with the same jobs.  With ``--compare``
the exit code is 1 when any key differs or is missing on either side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree holding koopgram")
    parser.add_argument("--compare", default=None, help="digest JSON to compare against")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]

    current = digests(OUT_DIR)
    print(json.dumps(current, sort_keys=True, indent=2))
    if args.compare is None:
        return 0
    before = json.loads(Path(args.compare).read_text())
    differ = sorted(k for k in set(before) | set(current) if before.get(k) != current.get(k))
    for key in differ:
        print(f"differs: {key}", file=sys.stderr)
    print(f"{len(current)} artifacts, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
