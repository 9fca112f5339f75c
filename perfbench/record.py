"""Records reference.json: every workload's battery output at this commit.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record.py

Each battery runs once, untraced and without the two-node solve deadline,
so every point gets a recorded value and certificate.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

from run import REFERENCE, ROOT, SRC

sys.path.insert(0, SRC)

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=scratch)
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(ROOT, 0, work_dir)
            results = [workload.run_unit(unit, None) for unit in workload.units]
            entries = reference[name] = {r.key: workload.record(r) for r in results}
            if hasattr(workload, "jobs_spec"):
                key, spec = workload.jobs_spec()
                entries[key] = workload.digests(workload.simulate(key, spec, 1).out["blobs"])
            print(f"{name}: {len(results)} units, {sum(r.wall for r in results):.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a benchmark run
            os.rmdir(scratch)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
