"""Mutated catalog specs keep the CLI's exit-code contract.

Each example takes one catalog spec, drops one key or list entry or
replaces one value anywhere in it, and runs ``metric`` (norms) or
``field --grid 5x5`` (structures).  The exit code must be 0, 2 or 3, and no
exception may escape ``main``.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blgeom import catalog
from blgeom.cli import main

SPECS = ([("metric", spec) for _, spec in catalog.BUILTIN_NORMS.values()]
         + [("field", spec) for _, spec in catalog.BUILTIN_STRUCTURES.values()])

REPLACEMENTS = [None, True, False, "x", "nan", "inf", [], [1.0, 2.0], {},
                {"kind": "linear"}, float("nan"), float("inf"), -float("inf"), 1e308,
                -1, 0, 1, 2, 3]


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


def _mutated(spec, path, replacement):
    spec = copy.deepcopy(spec)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if replacement == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return spec


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
