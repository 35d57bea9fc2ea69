"""Reference outputs of every job and the check of a job's outcome.

``references.json.gz`` holds, per job id, the exit code and the output the
seed commit produced: the parsed JSON payload, or the exact text, of
stdout, and the CSV file the job wrote.  One job instead carries bounds
that state the mathematically correct result (see ``README.md``).
``tolerances.json`` gives the numeric tolerance of every output field,
keyed ``<command>.<json key path>`` or ``<command>.csv.<column>``; exit
codes, strings, integers and booleans compare exactly.

A job ends in one of three states:

* ``ok``     -- exit code and output match the reference;
* ``failed`` -- the exit code is not the reference's: the program reported
  an error (or raised) where the reference has a result;
* ``wrong``  -- the exit code matches but the output is off the reference:
  the program returned a wrong answer.
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json.gz"
TOLERANCE_FILE = HERE / "tolerances.json"
CSV_HEADER_LINES = 2


@dataclass
class Outcome:
    """What one job did: exit code, captured streams, written file."""

    code: object          # int, or the exception type name if main raised
    stdout: str
    stderr: str
    file_text: str | None
    wall_s: float
    probe_s: float = 0.0  # host-speed probe time around the job (see speed.py)


def load():
    refs = json.loads(gzip.decompress(REFERENCE_FILE.read_bytes()))
    tols = json.loads(TOLERANCE_FILE.read_text())
    return refs, tols


def record(job, outcome: Outcome) -> dict:
    """The reference entry for a job's outcome (used to write references)."""
    entry = {"exit": outcome.code}
    try:
        entry["stdout"] = {"json": json.loads(outcome.stdout)}
    except json.JSONDecodeError:
        entry["stdout"] = {"text": outcome.stdout}
    if job.out is not None:
        header, data = _parse_csv(outcome.file_text)
        entry["csv"] = {"header": header, "data": data.tolist()}
    return entry


def _parse_csv(text: str):
    header = text.splitlines()[:CSV_HEADER_LINES]
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=CSV_HEADER_LINES,
                      ndmin=2)
    return header, data


class Mismatch(Exception):
    pass


def _close(path, actual, expected, tols):
    if path not in tols:
        raise KeyError(f"no tolerance stated for output field {path!r}")
    tol = tols[path]
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        raise Mismatch(f"{path}: shape {a.shape} != reference {e.shape}")
    ok = np.isclose(a, e, rtol=tol["rtol"], atol=tol["atol"], equal_nan=True)
    if not np.all(ok):
        k = int(np.argmin(ok.ravel()))
        raise Mismatch(f"{path}: {a.ravel()[k]!r} vs reference {e.ravel()[k]!r}")


def _numeric(x):
    if isinstance(x, list):
        return all(_numeric(v) for v in x)
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_json(path, actual, expected, tols):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            raise Mismatch(f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual}"
                           f" != reference {sorted(expected)}")
        for key in expected:
            _compare_json(f"{path}.{key}", actual[key], expected[key], tols)
    elif isinstance(expected, float) or isinstance(expected, list) and _numeric(expected):
        _close(path, actual, expected, tols)
    elif actual != expected or type(actual) is not type(expected):
        raise Mismatch(f"{path}: {actual!r} != reference {expected!r}")


def _check_bounds(command, stdout, bounds):
    payload = json.loads(stdout)
    for key, rule in bounds.items():
        value = payload.get(key)
        if "equals" in rule and value != rule["equals"]:
            raise Mismatch(f"{command}.{key}: {value!r} != {rule['equals']!r}")
        if "max" in rule and not (isinstance(value, float) and value <= rule["max"]):
            raise Mismatch(f"{command}.{key}: {value!r} exceeds {rule['max']!r}")


def check(job, outcome: Outcome, ref: dict, tols: dict) -> tuple[str, str]:
    """Classify a job's outcome against its reference: (state, detail)."""
    command = job.argv[0]
    if outcome.code != ref["exit"]:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return "failed", f"exit {outcome.code}, reference {ref['exit']}: {last[0]}"
    try:
        if "bounds" in ref:
            _check_bounds(command, outcome.stdout, ref["bounds"])
            return "ok", ""
        expected = ref["stdout"]
        if "text" in expected:
            if outcome.stdout != expected["text"]:
                raise Mismatch(f"stdout {outcome.stdout!r} != {expected['text']!r}")
        else:
            _compare_json(command, json.loads(outcome.stdout), expected["json"], tols)
        if "csv" in ref:
            if outcome.file_text is None:
                raise Mismatch(f"{job.out} was not written")
            header, data = _parse_csv(outcome.file_text)
            if header != ref["csv"]["header"]:
                raise Mismatch(f"CSV header {header} != {ref['csv']['header']}")
            want = np.asarray(ref["csv"]["data"])
            if data.shape != want.shape:
                raise Mismatch(f"CSV shape {data.shape} != reference {want.shape}")
            for k, col in enumerate(header[-1].split(",")):
                _close(f"{command}.csv.{col}", data[:, k], want[:, k], tols)
    except (Mismatch, ValueError, TypeError) as exc:
        return "wrong", str(exc)
    return "ok", ""
