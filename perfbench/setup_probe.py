"""Fresh-process set-up of one workload: import koopgram, resolve its systems.

Run by ``run.py`` in a new interpreter for each ``setup_s`` sample, as
``python3 perfbench/setup_probe.py <workload>``.  Prints the resolved system
names as one JSON line; exits non-zero when koopgram cannot be imported.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import koopgram  # noqa: E402
from koopgram import get_builtin, system_from_spec  # noqa: E402

from workloads import workload_jobs  # noqa: E402

systems = [
    get_builtin(job.system) if isinstance(job.system, str) else system_from_spec(job.system)
    for job in workload_jobs(sys.argv[1])
]
print(json.dumps({"koopgram": koopgram.__file__, "systems": [s.name for s in systems]}))
