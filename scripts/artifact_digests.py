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
when any key differs or is missing on either side.  Every JSON artifact is
also kept under its sha256 in ``.artifact_digests_blobs/``, so for each
differing JSON artifact whose two versions are both kept the comparison
adds the largest relative change of any number, with where it is and
its two values, and every other change: a string, bool, null or
non-finite number that differs (a verdict or a status), a list that
changed length or an object whose key set changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
OUT_DIR = Path(".artifact_digests")
BLOBS = Path(".artifact_digests_blobs")


def digests(out_dir: Path) -> dict:
    from workloads import WORKLOADS, job_config, reset_dir, run_job, workload_jobs

    result = {}
    BLOBS.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for job in workload_jobs(workload):
            for seed in SEEDS:
                reset_dir(out_dir)
                run_job(job, job_config(job, seed, out_dir))
                for path in sorted(out_dir.iterdir()):
                    key = f"{workload}/{job.name}/seed{seed}/{path.name}"
                    data = path.read_bytes()
                    result[key] = hashlib.sha256(data).hexdigest()
                    if path.suffix == ".json":
                        (BLOBS / f"{result[key]}.json").write_bytes(data)
    return result


def _leaves(value, where: str = ""):
    """``(path, leaf)`` pairs of a JSON value; an object also gives its key
    list and a list its length, so a change of shape shows as a leaf."""
    if isinstance(value, dict):
        yield f"{where or '.'} keys", sorted(value)
        for key, item in value.items():
            yield from _leaves(item, f"{where}.{key}")
    elif isinstance(value, list):
        yield f"{where or '.'} length", f"{len(value)} items"
        for i, item in enumerate(value):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def value_changes(old, new) -> tuple[float, str, list[str]]:
    """From JSON value ``old`` to ``new``: the largest relative change
    ``|b - a| / max(|a|, |b|)`` of any finite number, where it is (with the
    two values), and every other leaf that differs (NaN equals NaN)."""
    after = dict(_leaves(new))
    largest, at, other = 0.0, "", []
    for where, a in _leaves(old):
        if where not in after:
            continue
        b = after[where]
        if _finite_number(a) and _finite_number(b):
            if a != b and abs(b - a) / max(abs(a), abs(b)) > largest:
                largest, at = abs(b - a) / max(abs(a), abs(b)), f"{where} ({a!r} -> {b!r})"
        elif a != b and not (a != a and b != b):
            other.append(f"{where or '.'}: {a!r} -> {b!r}")
    return largest, at, other


def describe_change(old_sha: str | None, new_sha: str | None) -> list[str]:
    """Lines saying how a differing JSON artifact changed, from the kept
    versions; empty when either version is missing or not kept."""
    paths = [BLOBS / f"{sha}.json" for sha in (old_sha, new_sha) if sha is not None]
    if len(paths) != 2 or not all(p.exists() for p in paths):
        return []
    old, new = (json.loads(p.read_text()) for p in paths)
    rel, at, other = value_changes(old, new)
    return [f"  largest relative change {rel:.3g}" + (f" at {at}" if rel else "")] + [
        f"  changed {c}" for c in other
    ]


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
        for line in describe_change(before.get(key), current.get(key)):
            print(line, file=sys.stderr)
    print(f"{len(current)} artifacts, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
