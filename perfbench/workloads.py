"""The benchmark's three workloads: fixed lists of CLI jobs.

A job is one ``blgeom`` command line.  Paths in a job's argv are relative
to the benchmark's work directory, which holds ``specs/`` (written by
``blgeom examples --emit`` plus the benchmark's own 3D specs) and ``out/``
(CSV files the jobs write).  The job lists are fixed here, not read from
the emitted catalog, so a catalog change cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CATALOG_NORMS = (
    "anisotropic-euclidean", "asymmetric-triangle", "diamond-l1",
    "euclidean-2d", "euclidean-3d", "hexagon", "l1-l2-mix", "lp-1.5", "lp-4",
    "quartic-axial-2d", "quartic-axial-3d", "sheared-square", "square-max",
)
CATALOG_STRUCTURES = (
    "conformal-euclidean", "constant-square", "holonomy-extension-square",
    "l1-l2-interpolation", "rotor-constant", "rotor-linear",
)
# Benchmark-owned specs (perfbench/specs/structure-<name>.json).
OWN_STRUCTURES_3D = ("3d-quartic-axial", "3d-conformal-euclidean")


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    out: str | None = None   # file the job writes, read back after it returns


def _norm_jobs():
    return [Job(f"{cmd}:{name}", (cmd, "--norm", f"specs/norm-{name}.json"))
            for name in CATALOG_NORMS
            for cmd in ("metric", "ellipsoid", "invariants")]


def _field_jobs():
    jobs = []
    for name in CATALOG_STRUCTURES + OWN_STRUCTURES_3D:
        spec = f"specs/structure-{name}.json"
        grid = ("--grid", "9x9x9") if name in OWN_STRUCTURES_3D else ()
        out = f"out/field-{name}.csv"
        jobs.append(Job(f"field:{name}",
                        ("field", "--structure", spec, *grid, "--out", out), out))
        jobs.append(Job(f"berwald:{name}", ("berwald", "--structure", spec, *grid)))
    return jobs


def _fingerprint_jobs():
    return [Job(f"fingerprint:{name}",
                ("fingerprint", "--structure", f"specs/structure-{name}.json",
                 "--out", f"out/cloud-{name}.csv"), f"out/cloud-{name}.csv")
            for name in CATALOG_STRUCTURES]


def _compare_jobs():
    names = CATALOG_STRUCTURES
    return [Job(f"compare:{a}~{b}",
                ("compare", "--a", f"out/cloud-{a}.csv", "--b", f"out/cloud-{b}.csv"))
            for i, a in enumerate(names) for b in names[i + 1:]]


# Each workload is a list of groups; a pass shuffles every group and runs
# the groups in order, so every `fingerprint` precedes every `compare`.
WORKLOADS = {
    "norm-queries": [_norm_jobs()],
    "field-verdicts": [_field_jobs()],
    "fingerprint-clouds": [_fingerprint_jobs(), _compare_jobs()],
}


# Percentile reported as job_tail_s: the highest with at least ten samples
# beyond it at the seed commit's sample count in a 20 s run (norm-queries:
# about 9 passes of 39 jobs; fingerprint-clouds: about 8 passes of 21;
# field-verdicts: two passes of 16).  It is fixed so that a faster program,
# which fits more passes into a run, is still compared at the same
# percentile; the result file records how many samples lie beyond it.
TAIL_PERCENTILE = {"norm-queries": 97.0, "field-verdicts": 68.0,
                   "fingerprint-clouds": 94.0}


def all_jobs(workload: str) -> list:
    return [job for group in WORKLOADS[workload] for job in group]


class PassOrder:
    """Job order of successive passes, drawn from the workload seed."""

    def __init__(self, workload: str, seed: int):
        self._groups = WORKLOADS[workload]
        self._rng = random.Random(seed)

    def next_pass(self) -> list:
        order = []
        for group in self._groups:
            group = list(group)
            self._rng.shuffle(group)
            order.extend(group)
        return order
