"""Paired comparison of two commits on the benchmark.

    python3 perfbench/compare.py pairs --parent DIR --change DIR [--first-seed N]
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

``pairs`` measures two checkouts (each a directory holding ``src/blgeom``)
with this checkout's benchmark code: for every workload of
``BENCHMARK.json`` it runs ten pairs, alternating which side runs first,
with the same seed on both sides of a pair.  Every run's result record is
appended to ``parent.jsonl`` / ``change.jsonl`` in ``--out``, then the
report follows; it refuses result files that leave a workload out.

``report`` judges every (end-to-end metric, workload) pair:

* ``gain``          -- the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range; needs at least ten pairs;
* ``unresolved``    -- the parent's spread (IQR / median) exceeds the
  metric's bound, unless every change run beats every parent run;
* ``regression``    -- the change's median is worse than the parent's by
  more than the bound;
* ``no regression`` -- otherwise.

A gain does not count when more jobs failed on the change than on the
parent.  Result files whose environment records differ (machine, library
versions, BLAS threads) are refused rather than compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Judge one metric from paired runs (parent[i] and change[i] are a pair)."""
    n = len(parent)
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    iqr = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse_share = sign * (c_med - p_med) / p_med
    spread = iqr / p_med
    every_run_better = (max(change) < min(parent) if better == "lower"
                        else min(change) > max(parent))
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (p_med - c_med) > iqr:
        state = "gain"
    elif spread > bound and not every_run_better:
        state = "unresolved"
    elif worse_share > bound:
        state = "regression"
    else:
        state = "no regression"
    return {"verdict": state, "pairs": n, "wins": wins,
            "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "worse_share": worse_share, "parent_spread": spread, "bound": bound}


def _environment(record: dict) -> dict:
    return {k: v for k, v in record["environment"].items() if k != "seed"}


def compare(parent_records: list, change_records: list, benchmark: dict) -> tuple[list, list]:
    """Rows (workload, metric, verdict dict) and notes; raises on mismatched inputs."""
    envs = {json.dumps(_environment(r), sort_keys=True)
            for r in parent_records + change_records}
    if len(envs) > 1:
        raise ValueError("result files come from different environments:\n  "
                         + "\n  ".join(sorted(envs)))
    rows, notes = [], []
    missing = {w["name"] for w in benchmark["workloads"]} - {
        r["workload"] for r in parent_records + change_records}
    if missing:
        raise ValueError(f"no runs of {', '.join(sorted(missing))}; every workload is judged")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        p = sorted((r for r in parent_records if r["workload"] == workload),
                   key=lambda r: r["pair"])
        c = sorted((r for r in change_records if r["workload"] == workload),
                   key=lambda r: r["pair"])
        if [(r["pair"], r["seed"]) for r in p] != [(r["pair"], r["seed"]) for r in c]:
            raise ValueError(f"{workload}: the two files do not hold the same pairs")
        if len(p) < 2:
            raise ValueError(f"{workload}: {len(p)} pair(s); quartiles need at least 2")
        if len(p) < MIN_PAIRS:
            notes.append(f"{workload}: {len(p)} pairs; a gain needs {MIN_PAIRS}")
        failed_p, failed_c = sum(r["failed"] for r in p), sum(r["failed"] for r in c)
        more_failures = failed_c > failed_p
        if more_failures:
            notes.append(f"{workload}: {failed_c} jobs failed on the change, {failed_p} "
                         "on the parent; no gain counts")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            judged = verdict([r["end_to_end"][name]["value"] for r in p],
                             [r["end_to_end"][name]["value"] for r in c],
                             metric["better"], metric["bound"])
            if more_failures and judged["verdict"] == "gain":
                judged["verdict"] = "gain not counted"
            judged["unit"] = metric["unit"]
            rows.append((workload, name, judged))
    return rows, notes


def print_report(rows, notes):
    print(f"{'workload':20s} {'metric':22s} {'parent q1/median/q3':>34s} "
          f"{'change q1/median/q3':>34s} {'wins':>6s}  verdict")
    for workload, name, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{workload:20s} {name:22s} {fmt(v['parent']):>34s} {fmt(v['change']):>34s} "
              f"{v['wins']:>3d}/{v['pairs']:<2d}  {v['verdict']} "
              f"(worse by {100 * v['worse_share']:+.1f}%, parent spread "
              f"{100 * v['parent_spread']:.1f}%, bound {100 * v['bound']:.0f}%)")
    for note in notes:
        print(f"note: {note}")


def _read_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def run_pairs(args, benchmark) -> int:
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    files = {"parent": out / "parent.jsonl", "change": out / "change.jsonl"}
    for f in files.values():
        f.write_text("")
    sides = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    seconds = benchmark["run_seconds"]
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for pair in range(MIN_PAIRS):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result_file = out / f"{side}-{workload}-{pair}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                       "--src", str(sides[side]), "--result-file", str(result_file)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{side} run failed ({workload}, seed {seed}):\n{proc.stderr}",
                          file=sys.stderr)
                    return 2
                record = json.loads(result_file.read_text())
                record.update(pair=pair, first=order[0])
                with open(files[side], "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"{proc.stdout.splitlines()[-1][:120]}", flush=True)
    return report(files["parent"], files["change"], benchmark)


def report(parent_file, change_file, benchmark) -> int:
    try:
        rows, notes = compare(_read_jsonl(parent_file), _read_jsonl(change_file), benchmark)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print_report(rows, notes)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs, then report")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=HERE / ".work" / "compare")
    r = sub.add_parser("report", help="judge two result files")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.command == "pairs":
        return run_pairs(args, benchmark)
    return report(args.parent, args.change, benchmark)


if __name__ == "__main__":
    sys.exit(main())
