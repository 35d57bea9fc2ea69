"""Benchmark runner: runs one workload through ``blgeom.cli.main`` in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload norm-queries --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Each job (one CLI command
line) starts when the previous one has returned; one process runs them
all, with BLAS/OpenMP threads held to ``BLAS_THREADS``.  A pass runs every
job of the workload once, in an order drawn from ``--seed``; another pass
starts only while it is expected to end within ``--seconds``, after at
least ``MIN_PASSES`` passes, so a run measures whole passes.  After the timed
phase every job's exit code and output are checked against
``references.json.gz``.

``--trace 0`` reports the end-to-end metrics, with job and set-up times
scaled to a reference host speed (``speed.py``).  ``--trace 1`` alternates
an untraced pass and a traced pass with the same job order, reports the
per-layer metrics of the traced passes and the tracing overhead, checks
that both passes wrote byte-identical outputs, and saves the spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
tail percentile, per-job medians, failures) goes to ``--result-file``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (thread limits must be set before numpy loads)
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import references  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from references import Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 5
MIN_PASSES = 2   # an untraced run times every job at least twice
try:
    MALLOC_TRIM = ctypes.CDLL(None).malloc_trim   # glibc only
except (OSError, AttributeError):
    MALLOC_TRIM = None


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(src: Path):
    """Import blgeom from ``src`` and emit the specs; returns cli.main."""
    cli = importlib.import_module("blgeom.cli")
    if Path(cli.__file__).resolve().parent != (src / "blgeom").resolve():
        raise SetupError(f"imported blgeom from {cli.__file__}, not from {src}")
    specs = WORK / "specs"
    shutil.rmtree(specs, ignore_errors=True)
    emit = run_job(cli.main, workloads.Job("examples", ("examples", "--emit", str(specs))))
    if emit.code != 0:
        raise SetupError(f"blgeom examples --emit exited {emit.code}: {emit.stderr}")
    for spec in (HERE / "specs").glob("*.json"):
        shutil.copyfile(spec, specs / spec.name)
    (WORK / "out").mkdir(exist_ok=True)
    return cli.main


def cold_setup_s(src: Path) -> float:
    """Time one set-up in a fresh interpreter (``setup_time.py``)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_time.py"), str(src)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def setup(src: Path):
    """Measure the set-up, then set up in this process to run the jobs.

    The set-up time is the median, at reference speed, of SETUP_REPEATS cold
    set-ups (import blgeom, emit specs, load references), each in a fresh
    interpreter, so every import blgeom pulls in is paid as in a user's
    first command.  Returns it with cli.main, the references and the speed
    probe; the cwd becomes the work directory, which job argv paths are
    relative to.
    """
    if not (src / "blgeom" / "__init__.py").is_file():
        raise SetupError(f"no blgeom package under {src}")
    WORK.mkdir(exist_ok=True)
    probe = speed.SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe.probe()
        raw = cold_setup_s(src)
        times.append(speed.scaled(raw, 0.5 * (before + probe.probe())))
    sys.path.insert(0, str(src))
    main = prepare(src)
    refs, tols = references.load()
    os.chdir(WORK)
    # Keep the references out of the collector's scans while jobs run.
    gc.collect()
    gc.freeze()
    return statistics.median(times), main, refs, tols, probe


def environment(seed: int) -> dict:
    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(np), "openblas_scipy": blas_version(scipy),
            "blas_threads": BLAS_THREADS, "seed": seed}


# ---------------------------------------------------------------------------
# jobs and passes
# ---------------------------------------------------------------------------


def run_job(main, job) -> Outcome:
    out_file = WORK / job.out if job.out else None
    if out_file is not None and out_file.exists():
        out_file.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(job.argv))
    except Exception as exc:  # an uncaught error is a failed job, not a crash
        code = type(exc).__name__
        stderr.write(f"uncaught {code}: {exc}\n")
    wall = time.perf_counter() - start
    text = out_file.read_text() if out_file is not None and out_file.exists() else None
    # Outside the job's timing, free its cyclic garbage and hand the heap's
    # free memory back to the system, so the next job starts from a clean
    # heap as a fresh command would.  Otherwise a job may or may not reuse
    # what the one before it left free, and the peak RSS moves by 15 MiB.
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), text, wall)


def run_pass(main, order, probe, tracer=None) -> list:
    """Run the jobs in order, probing host speed between them."""
    outcomes, pending = [], []
    before = probe.probe()
    for k, job in enumerate(order):
        if tracer is not None:
            tracer.start_job(job.id)
        outcome = run_job(main, job)
        outcomes.append(outcome)
        pending.append(outcome)
        if probe.due() or k == len(order) - 1:
            after = probe.probe()
            for o in pending:
                o.probe_s = 0.5 * (before + after)
            before, pending = after, []
    return outcomes


class Checker:
    """Classifies outcomes against the references, each distinct output once."""

    def __init__(self, refs, tols):
        self.refs, self.tols = refs, tols
        self._seen = {}
        self.problems = {}

    def states(self, passes) -> list:
        out = []
        for pass_ in passes:
            for job, outcome in pass_:
                key = (job.id, outcome.code, outcome.stdout, outcome.file_text)
                if key not in self._seen:
                    self._seen[key] = references.check(job, outcome, self.refs[job.id],
                                                       self.tols)
                state, detail = self._seen[key]
                if state != "ok":
                    problem = (job.id, state, detail)
                    self.problems[problem] = self.problems.get(problem, 0) + 1
                out.append(state)
        return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(times)
    k = max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - k - 1


def job_times(passes) -> list:
    """Every job's time at reference speed."""
    return [speed.scaled(o.wall_s, o.probe_s) for pass_ in passes for _, o in pass_]


def end_to_end(workload, setup_s, times, states) -> dict:
    """The end-to-end metrics from job times at reference speed."""
    value, _ = tail(times, workloads.TAIL_PERCENTILE[workload])
    return {
        "throughput_jobs_per_s": (states.count("ok") / sum(times), "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_job_medians(passes):
    times = {}
    for pass_ in passes:
        for job, outcome in pass_:
            times.setdefault(job.id, []).append(outcome.wall_s)
    return {job_id: statistics.median(t) for job_id, t in sorted(times.items())}


def _metric_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, prepared) -> dict:
    setup_s, main, refs, tols, probe = prepared
    order = workloads.PassOrder(workload, seed)
    plain, traced = [], []
    identical = True
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        traced_main = tracer.wrap(tracing.ROOT, main)
    start = time.perf_counter()
    while True:
        jobs = order.next_pass()
        outcomes = run_pass(main, jobs, probe)
        plain.append(list(zip(jobs, outcomes)))
        if trace:
            tracer.install()
            try:
                t_outcomes = run_pass(traced_main, jobs, probe, tracer)
            finally:
                tracer.uninstall()
            traced.append(list(zip(jobs, t_outcomes)))
            identical &= all((a.code, a.stdout, a.file_text) == (b.code, b.stdout, b.file_text)
                             for a, b in zip(outcomes, t_outcomes))
        elapsed = time.perf_counter() - start
        done = len(plain)
        if done >= (1 if trace else MIN_PASSES) and elapsed * (done + 1) / done > seconds:
            break
    timed_wall = time.perf_counter() - start
    checker = Checker(refs, tols)
    states = checker.states(plain)
    all_states = states + checker.states(traced)
    scaled = job_times(plain)
    passed = states.count("ok")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed), "passes": len(plain),
        "timed_wall_s": timed_wall,
        "end_to_end": _metric_json(end_to_end(workload, setup_s, scaled, states)),
        "job_tail": {"percentile": workloads.TAIL_PERCENTILE[workload],
                     "samples": len(scaled),
                     "beyond": tail(scaled, workloads.TAIL_PERCENTILE[workload])[1]},
        "failed_ratio": {"value": (len(states) - passed) / len(states), "unit": "1",
                         "failed": len(states) - passed, "attempted": len(states)},
        "probe_s": {"min": min(o.probe_s for p in plain for _, o in p),
                    "max": max(o.probe_s for p in plain for _, o in p)},
        "per_job_median_s": per_job_medians(plain),
        "problems": [{"job": j, "state": s, "detail": d, "count": c}
                     for (j, s, d), c in sorted(checker.problems.items())],
        "attempted": len(all_states),
        "failed": len(all_states) - all_states.count("ok"),
        "wrong": all_states.count("wrong"),
    }
    if trace:
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_ratio"] = (
            sum(job_times(traced)) / sum(scaled), "ratio")
        result["per_layer"] = _metric_json(layers)
        result["traced_identical"] = identical
        result["spans"] = len(tracer.start)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(exist_ok=True)
        span_file = trace_dir / f"{workload}-seed{seed}.npz"
        tracer.save(span_file)
        result["span_file"] = str(span_file)
    result["correct"] = result["wrong"] == 0 and (not trace or identical)
    return result


def report(result):
    tail_info = result["job_tail"]
    fr = result["failed_ratio"]
    print(f"workload {result['workload']} seed {result['seed']}: {result['passes']} "
          f"pass(es), {result['attempted']} jobs attempted, "
          f"timed phase {result['timed_wall_s']:.3f} s")
    print(f"  {'metric':24s} {'at reference speed':>20s}")
    for name, m in result["end_to_end"].items():
        note = ""
        if name == "job_tail_s":
            note = (f"  (p{tail_info['percentile']:.1f} of {tail_info['samples']} samples, "
                    f"{tail_info['beyond']} beyond)")
        print(f"  {name:24s} {m['value']:>20.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':24s} {fr['value']:.6g} {fr['unit']}  "
          f"({fr['failed']} of {fr['attempted']} jobs attempted)")
    for p in result["problems"]:
        print(f"  {p['state']} x{p['count']}: {p['job']}: {p['detail']}")
    if "per_layer" in result:
        print(f"traced run: {result['spans']} spans, outputs byte-identical to the "
              f"untraced passes: {result['traced_identical']}")
        for name, m in result["per_layer"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["per_layer" if result["trace"] else "end_to_end"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the blgeom package to measure "
                             "(default: src/ of this checkout)")
    parser.add_argument("--result-file", type=Path,
                        help="where to write the full result record (default: "
                             "perfbench/.work/results/<workload>-seed<n>-trace<t>.json)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    result_file = (args.result_file.resolve() if args.result_file else
                   WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        prepared = setup(src)
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), prepared)
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
