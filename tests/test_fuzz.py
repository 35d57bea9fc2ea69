"""Mutated catalog specs and clouds keep the CLI's exit-code contract.

Each example takes one catalog spec, drops one key or list entry or
replaces one value anywhere in it, and runs ``metric`` (norms) or
``field --grid 5x5`` (structures).  The exit code must be 0, 2 or 3, and no
exception may escape ``main``.  A second pair of tests runs the same
mutations, and a wrap of any norm in the spec as the linear image kappa I,
through ``ellipsoid`` and ``invariants`` (norms) or ``berwald --grid 9x9``
and ``fingerprint --grid 3x3`` (structures); one more runs ``compare`` on
every single mutation of a cloud CSV.  A sweep over every mutation of
every catalog norm checks that each norm a spec builds is a norm, with no
sampled check on the CLI's side.  Last, argument lists drawn from the
subcommand names, every flag, help, negative numbers and junk keep the
parser's contract: help exits 0, anything else that does not run exits 2.
"""

import copy
import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blgeom import InputError, NumericalFailure, catalog, specio, validate
from blgeom.cli import _COMMANDS, main

SPECS = ([("metric", spec) for _, spec in catalog.BUILTIN_NORMS.values()]
         + [("field", spec) for _, spec in catalog.BUILTIN_STRUCTURES.values()])

REPLACEMENTS = [None, True, False, "x", "nan", "inf", "1.5", [], [1.0, 2.0],
                [[1.0], [1.0, 2.0]], {}, {"kind": "linear"}, float("nan"), float("inf"),
                -float("inf"), 1e308, 10 ** 400, -1, 0, 1, 2, 3]


def _paths(node, prefix=()):
    """Paths to every value below ``node``: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# one spec, then one path in it: every spec is picked equally often
CASES = st.sampled_from(SPECS).flatmap(
    lambda case: st.tuples(st.just(case), st.sampled_from(list(_paths(case[1])))))


class Scale(float):
    """The replacement that wraps the norm at its path as linear-image kappa I."""


# kappa of the wrap: exact (2^+-300), to round-off (1e+-100), and past the
# float range of a 2D metric (1e+-160)
SCALES = [Scale(k) for k in (2.0 ** 300, 2.0 ** -300, 1e100, 1e-100, 1e160, 1e-160)]


def _mutations(spec):
    """Every single mutation of ``spec``, as (path, replacement): a drop or a
    ``REPLACEMENTS`` value at each path, and a ``SCALES`` wrap of each norm
    in it, ``spec`` itself included."""
    norms = [path for path in [(), *_paths(spec)]
             if isinstance(node := functools.reduce(operator.getitem, path, spec), dict)
             and node.get("family") in specio.NORM_KEYS]
    return ([(path, r) for path in _paths(spec) for r in ["drop"] + REPLACEMENTS]
            + [(path, kappa) for path in norms for kappa in SCALES])


def _wrapped(norm, kappa):
    dim = specio.norm_from_spec(norm).dim
    return {"family": "linear-image", "inner": norm, "matrix": (kappa * np.eye(dim)).tolist()}


def _mutated(spec, path, replacement):
    spec = copy.deepcopy(spec)
    if not path:                      # only a wrap reaches the spec itself
        return _wrapped(spec, replacement)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(replacement, Scale):
        parent[path[-1]] = _wrapped(parent[path[-1]], replacement)
    elif replacement == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return spec


def _keeps_contract(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=CASES, replacement=st.sampled_from(["drop"] + REPLACEMENTS))
def test_mutated_spec_keeps_exit_code_contract(tmp_path, capsys, case, replacement):
    (command, spec), path = case
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_mutated(spec, path, replacement)))
    if command == "metric":
        argv = ["metric", "--norm", str(spec_path)]
    else:
        argv = ["field", "--structure", str(spec_path), "--grid", "5x5",
                "--out", str(tmp_path / "field.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_norm_a_mutated_spec_builds_is_a_norm(tmp_path, capsys):
    # each family's constructor proves the axioms, so every norm built passes
    # the sampled check (or its values leave the float range there), and
    # ``ellipsoid`` needs none: it exits 0, or 3 past the float range
    path = tmp_path / "spec.json"
    built = 0
    for _, spec in catalog.BUILTIN_NORMS.values():
        for key in _paths(spec):
            for replacement in ["drop"] + REPLACEMENTS:
                mutated = _mutated(spec, key, replacement)
                try:
                    norm = specio.norm_from_spec(mutated)
                except InputError:
                    continue
                built += 1
                try:
                    assert validate(norm, 300).ok, mutated
                except NumericalFailure:
                    pass
                path.write_text(json.dumps(mutated))
                code = main(["ellipsoid", "--norm", str(path)])
                err = capsys.readouterr().err
                assert code in (0, 3), (mutated, err)
    assert built == 266


def _spec_and_mutation(specs):
    # one spec, then one of its mutations: every spec is picked equally often
    return st.sampled_from(specs).flatmap(
        lambda spec: st.tuples(st.just(spec), st.sampled_from(_mutations(spec))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_spec_and_mutation([spec for _, spec in catalog.BUILTIN_NORMS.values()]))
def test_mutated_norm_keeps_exit_code_contract_in_ellipsoid_and_invariants(tmp_path, capsys, case):
    spec, (path, replacement) = case
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_mutated(spec, path, replacement)))
    for command in ("ellipsoid", "invariants"):
        _keeps_contract(capsys, [command, "--norm", str(spec_path)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_spec_and_mutation([spec for _, spec in catalog.BUILTIN_STRUCTURES.values()]))
def test_mutated_structure_keeps_exit_code_contract_in_berwald_and_fingerprint(tmp_path, capsys,
                                                                             case):
    spec, (path, replacement) = case
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_mutated(spec, path, replacement)))
    _keeps_contract(capsys, ["berwald", "--structure", str(spec_path), "--grid", "9x9"])
    _keeps_contract(capsys, ["fingerprint", "--structure", str(spec_path), "--grid", "3x3",
                             "--out", str(tmp_path / "cloud.csv")])


_CLOUD = [["x1", "x2", "w0", "w1", "mu", "m_max"],
          ["0", "0", "3", "3.4", "0.8", "1.1"],
          ["1", "0", "3.5", "3.1", "0.7", "1.2"],
          ["0", "1", "3.2", "3.3", "0.9", "1.0"]]
CELLS = ["1e308", "-1e308", "5e-324", "nan", "1_0"]


def _cloud_text(rows, end="\n"):
    return "# blgeom cloud v1" + end + "".join(",".join(row) + end for row in rows)


def _cloud_mutations():
    """Every single mutation of ``_CLOUD`` as CSV text: a column dropped or
    duplicated, a data row one cell short or long, a ``CELLS`` value in one
    data cell, a byte-order mark, CRLF line ends."""
    width = len(_CLOUD[0])
    for j in range(width):
        yield _cloud_text([row[:j] + row[j + 1:] for row in _CLOUD])
        yield _cloud_text([row[:j + 1] + row[j:] for row in _CLOUD])
    for i in range(1, len(_CLOUD)):
        for ragged in (_CLOUD[i][:-1], _CLOUD[i] + ["1"]):
            yield _cloud_text(_CLOUD[:i] + [ragged] + _CLOUD[i + 1:])
        for j in range(width):
            for cell in CELLS:
                rows = copy.deepcopy(_CLOUD)
                rows[i][j] = cell
                yield _cloud_text(rows)
    yield "\ufeff" + _cloud_text(_CLOUD)
    yield _cloud_text(_CLOUD, end="\r\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_cloud_keeps_exit_code_contract_in_compare(tmp_path, capsys):
    # each mutation against the intact cloud, in both orders
    intact, mutated = tmp_path / "intact.csv", tmp_path / "mutated.csv"
    intact.write_text(_cloud_text(_CLOUD), encoding="utf-8")
    cases = 0
    for text in _cloud_mutations():
        mutated.write_text(text, encoding="utf-8", newline="")
        for a, b in ((mutated, intact), (intact, mutated)):
            _keeps_contract(capsys, ["compare", "--a", str(a), "--b", str(b)])
        cases += 1
    assert cases == 12 + 3 * (2 + 6 * len(CELLS)) + 2


# every command that reads an input, and every flag of any command: whole,
# cut to each prefix, and joined by = to a value
ARGV_COMMANDS = [name for name in _COMMANDS if name not in ("verify", "examples")]
FLAGS = sorted({name for _, _, flags in _COMMANDS.values() for name, _ in flags})
PREFIXES = sorted({flag[:k] for flag in FLAGS for k in range(3, len(flag))})
JUNK = ["-h", "--help", "--", "-", "=", "--=x", "", "-1", "-0.5", "-1e-3", "-inf", "-nan",
        "0", "4", "1e-3", "nan", "9x9", "0x3", "x", "-x", "--x", "--norm=", "ünïcode"]


def _argv_tokens(paths):
    values = st.sampled_from(JUNK + paths)
    flags = st.sampled_from(FLAGS + PREFIXES)
    return st.one_of(st.sampled_from(ARGV_COMMANDS), flags, values,
                     st.builds(lambda flag, value: f"{flag}={value}", flags, values))


@settings(derandomize=True, database=None, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_exits_0_for_help_and_2_otherwise(tmp_path, capsys, data):
    # every spec path names a file in an empty directory, or the directory:
    # no command gets as far as writing, so only help exits 0
    paths = [str(tmp_path), str(tmp_path / "spec.json"), str(tmp_path / "out.csv")]
    argv = data.draw(st.one_of(
        st.lists(_argv_tokens(paths), max_size=8),
        st.tuples(st.sampled_from(ARGV_COMMANDS), st.lists(_argv_tokens(paths), max_size=8)).map(
            lambda case: [case[0], *case[1]])))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == (0 if "-h" in argv or "--help" in argv else 2), (argv, captured.err)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
