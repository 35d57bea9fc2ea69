import json
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from blgeom import catalog, specio

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


@pytest.fixture(scope="module")
def validators():
    norm_schema = json.loads((SCHEMA_DIR / "norm.schema.json").read_text())
    struct_schema = json.loads((SCHEMA_DIR / "structure.schema.json").read_text())
    registry = Registry().with_resources([
        ("blgeom/norm.schema.json", Resource.from_contents(norm_schema)),
        ("norm.schema.json", Resource.from_contents(norm_schema)),
        ("blgeom/structure.schema.json", Resource.from_contents(struct_schema)),
    ])
    return (jsonschema.Draft202012Validator(norm_schema, registry=registry),
            jsonschema.Draft202012Validator(struct_schema, registry=registry))


def test_builtin_norm_specs_match_schema(validators):
    nv, _ = validators
    for name, (_, spec) in catalog.BUILTIN_NORMS.items():
        errors = list(nv.iter_errors(spec))
        assert not errors, (name, errors[0].message)


def test_builtin_structure_specs_match_schema(validators):
    _, sv = validators
    for name, (_, spec) in catalog.BUILTIN_STRUCTURES.items():
        errors = list(sv.iter_errors(spec))
        assert not errors, (name, errors[0].message)


def test_schema_rejects_unknown_family(validators):
    nv, _ = validators
    assert list(nv.iter_errors({"family": "banana", "dim": 2}))


def _closed_keys(obj, tag=None):
    """(required, all) keys of a closed schema object, without its tag."""
    assert obj["additionalProperties"] is False
    return set(obj["required"]) - {tag}, set(obj["properties"]) - {tag}


def _table(keys):
    required, optional = keys
    return set(required), set(required) | set(optional)


def test_spec_reader_keys_match_schemas():
    norm = json.loads((SCHEMA_DIR / "norm.schema.json").read_text())
    struct = json.loads((SCHEMA_DIR / "structure.schema.json").read_text())
    for branches, tag, table in [
            (norm["oneOf"], "family", specio.NORM_KEYS),
            (struct["properties"]["field"]["oneOf"], "family", specio.FIELD_KEYS),
            (struct["$defs"]["scalarField"]["oneOf"], "kind", specio.SCALAR_KEYS)]:
        documented = {b["properties"][tag]["const"]: _closed_keys(b, tag) for b in branches}
        assert documented == {value: _table(keys) for value, keys in table.items()}
    assert _closed_keys(struct) == _table(specio.STRUCTURE_KEYS)
    assert _closed_keys(struct["properties"]["chart"]) == _table(specio.CHART_KEYS)
