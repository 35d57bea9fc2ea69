"""Write ``references.json.gz``: every job's exit code and output.

    python3 perfbench/make_references.py

Runs each job of every workload once against ``src/`` and records what it
returned.  The stored file holds the seed commit's outputs; rewriting it
is a change to the benchmark, never part of a change that claims a gain.
``BOUNDED`` jobs keep a hand-written reference instead (see README.md).
"""

from __future__ import annotations

import gzip
import json
import sys

import references
import run
import workloads

# The mathematically correct result of the conformally euclidean 3D
# structure: curved, hence not locally Minkowski, and Riemannian, hence
# Berwald (defect near zero).
BOUNDED = {
    "berwald:3d-conformal-euclidean": {
        "exit": 0,
        "bounds": {"verdict": {"equals": "not locally Minkowski"},
                   "defect": {"max": 1e-6}},
    },
}


def main() -> int:
    src = run.ROOT / "src"
    sys.path.insert(0, str(src))
    run.WORK.mkdir(exist_ok=True)
    cli_main = run.prepare(src)
    run.os.chdir(run.WORK)
    refs = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.all_jobs(workload):
            outcome = run.run_job(cli_main, job)
            refs[job.id] = BOUNDED.get(job.id) or references.record(job, outcome)
            print(f"{job.id}: exit {outcome.code} ({outcome.wall_s:.3f} s)")
    text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
    references.REFERENCE_FILE.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {len(refs)} references to {references.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
