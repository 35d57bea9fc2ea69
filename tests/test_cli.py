import copy
import json

import numpy as np
import pytest

from blgeom import (NumericalFailure, auto_quadrature, catalog, dual_scalar_matrix,
                    manifold, specio, unit_ball_volume)
from blgeom.cli import main
from counting import CountingNorm


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    catalog.emit_examples(d)
    return d


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse CLI output as strict JSON: NaN and Infinity fail the test."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_metric_square(spec_dir, capsys):
    code, out = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["metric"], 0.75 * np.eye(2), atol=1e-6)
    np.testing.assert_allclose(payload["unit_ball_volume"], 4.0, rtol=1e-10)
    assert payload["quadrature"]["converged"]


def test_every_emitted_norm_runs_metric(spec_dir, capsys):
    for path in sorted(spec_dir.glob("norm-*.json")):
        code, out = run(capsys, "metric", "--norm", str(path))
        assert code == 0, path
        strict_json(out)


def test_every_emitted_structure_runs_field(spec_dir, capsys, tmp_path):
    for path in sorted(spec_dir.glob("structure-*.json")):
        out_csv = tmp_path / (path.stem + ".csv")
        code, _ = run(capsys, "field", "--structure", str(path),
                      "--grid", "9x9", "--out", str(out_csv))
        assert code == 0, path
        data = np.genfromtxt(out_csv, delimiter=",", names=True,
                             skip_header=1)
        assert len(data) == 81
        assert out_csv.read_text().startswith("# blgeom field v1")


def test_metric_output_deterministic(spec_dir, capsys):
    _, out1 = run(capsys, "metric", "--norm", str(spec_dir / "norm-hexagon.json"))
    _, out2 = run(capsys, "metric", "--norm", str(spec_dir / "norm-hexagon.json"))
    assert out1 == out2


def test_ellipsoid_command(spec_dir, capsys):
    code, out = run(capsys, "ellipsoid", "--norm",
                    str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["binet"]["shape"],
                               (4.0 / 3.0) * np.eye(2), atol=1e-10)
    assert payload["legendre"]["scale"] == pytest.approx(0.98853680, abs=1e-6)


def test_invariants_command(spec_dir, capsys):
    code, out = run(capsys, "invariants", "--norm",
                    str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["fingerprint"],
                               [3.0, 2 * np.sqrt(3.0), np.sqrt(2 / 3), 2 / np.sqrt(3)],
                               atol=1e-4)


def test_fingerprint_compare_pipeline(spec_dir, capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, _ = run(capsys, "fingerprint", "--structure",
                  str(spec_dir / "structure-constant-square.json"),
                  "--grid", "3x3", "--out", str(a))
    assert code == 0
    code, _ = run(capsys, "fingerprint", "--structure",
                  str(spec_dir / "structure-conformal-euclidean.json"),
                  "--grid", "3x3", "--out", str(b))
    assert code == 0

    code, out = run(capsys, "compare", "--a", str(a), "--b", str(a))
    assert code == 0
    assert strict_json(out)["verdict"] == "cannot distinguish"

    code, out = run(capsys, "compare", "--a", str(a), "--b", str(b), "--assert")
    assert code == 1
    assert strict_json(out)["verdict"] == "not conformally equivalent"


def test_fingerprint_csv_deterministic(spec_dir, capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "fingerprint", "--structure",
            str(spec_dir / "structure-rotor-constant.json"),
            "--grid", "2x2", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_berwald_command(spec_dir, capsys):
    code, out = run(capsys, "berwald", "--structure",
                    str(spec_dir / "structure-rotor-linear.json"),
                    "--grid", "17x17")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "not locally Minkowski"
    assert payload["defect"] > 1e-4
    assert payload["flat_residual"] < 1e-4

    code, _ = run(capsys, "berwald", "--structure",
                  str(spec_dir / "structure-rotor-linear.json"),
                  "--grid", "17x17", "--assert")
    assert code == 1

    code, out = run(capsys, "berwald", "--structure",
                    str(spec_dir / "structure-constant-square.json"),
                    "--grid", "17x17", "--assert")
    assert code == 0
    assert strict_json(out)["verdict"] == "locally Minkowski"


def test_examples_list(capsys):
    code, out = run(capsys, "examples", "--list")
    assert code == 0
    assert "square-max" in out and "l1-l2-interpolation" in out


def test_verify_smoke(capsys):
    code, out = run(capsys, "verify", "--suite", "norms", "--seed", "7")
    assert code == 0
    assert "checks passed" in out


def test_exit_code_unknown_family(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "banana", "dim": 2}')
    code = main(["metric", "--norm", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "euclidean" in captured.err  # the hint lists accepted families


def test_exit_code_missing_file(capsys):
    code, _ = run(capsys, "metric", "--norm", "/does/not/exist.json")
    assert code == 2


def test_exit_code_bad_grid(spec_dir, capsys):
    code, _ = run(capsys, "berwald", "--structure",
                  str(spec_dir / "structure-constant-square.json"),
                  "--grid", "banana")
    assert code == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    squashed = tmp_path / "squashed.json"
    squashed.write_text(json.dumps({
        "family": "euclidean",
        "matrix": [[1.0, 0.0], [0.0, 1e-14]]}))
    code, _ = run(capsys, "metric", "--norm", str(squashed))
    assert code == 3


_SQUARE_SPEC = catalog.BUILTIN_NORMS["square-max"][1]


@pytest.mark.parametrize("field", [
    {"family": "conformal-rescale",
     "base": {"family": "constant",
              "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "factor": {"kind": "linear", "slope": 1.0}},
    {"family": "constant",
     "norm": {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1e-7]],
              "inner": _SQUARE_SPEC}},
], ids=["factor-crosses-zero", "ill-conditioned"])
def test_field_exit_code_numerical_failure(field, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                                "field": field}))
    code = main(["field", "--structure", str(spec), "--grid", "9x9",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at node" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["field", "berwald"])
def test_interpolated_metric_loses_definiteness_exit_3(tmp_path, capsys, command):
    # every node tensor is (1 + 0.9 sin 9x)^2 I >= 0.01 I, but at the default
    # 33x33 lattice the spline through them is indefinite between nodes
    spec = tmp_path / "wiggle.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5]},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
                  "factor": {"kind": "one-plus-sin", "amp": 0.9, "freq": 9}}}))
    out = ["--out", str(tmp_path / "wiggle.csv")] if command == "field" else []
    code = main([command, "--structure", str(spec), *out])
    assert code == 3
    assert "interpolated metric loses positive definiteness near" in capsys.readouterr().err


def test_metric_exit_code_non_finite(tmp_path, capsys):
    # F ~ 1e200 |x| over- and underflows in the moment integrals
    inner = {"family": "linear-image", "matrix": [[1e100, 0.0], [0.0, 1e100]],
             "inner": _SQUARE_SPEC}
    spec = tmp_path / "nested.json"
    spec.write_text(json.dumps({"family": "linear-image",
                                "matrix": [[1e100, 0.0], [0.0, 1e100]],
                                "inner": inner}))
    code, out = run(capsys, "metric", "--norm", str(spec))
    assert code == 3 and out == ""


def test_fingerprint_exit_code_numerical_failure(tmp_path, capsys):
    # the conformal factor 0.2 + x1 is negative on the left of the chart
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean",
                                    "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
                  "factor": {"kind": "linear", "slope": 1.0, "offset": 0.2}}}))
    code = main(["fingerprint", "--structure", str(spec), "--grid", "4x4",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at point" in capsys.readouterr().err


def test_fingerprint_exit_code_ill_conditioned(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "constant",
                  "norm": {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1e-7]],
                           "inner": _SQUARE_SPEC}}}))
    code = main(["fingerprint", "--structure", str(spec), "--grid", "4x4",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at point" in capsys.readouterr().err


def test_exit_code_non_numeric_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "euclidean", "matrix": [["a", 0], [0, 1]]}')
    code = main(["metric", "--norm", str(bad)])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err


def test_exit_code_non_numeric_scalar_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "rotor", "psi": {"kind": "linear", "slope": "x"}}}))
    code = main(["field", "--structure", str(bad), "--grid", "9x9",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err


def test_exit_code_negative_quad_level(spec_dir, capsys):
    code, _ = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"),
                  "--quad-level", "-3")
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_metric_of_deeply_nested_linear_images(tmp_path, capsys):
    # 900 identity layers fold into one image; no recursion per layer
    spec = _SQUARE_SPEC
    for _ in range(900):
        spec = {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]], "inner": spec}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    square = tmp_path / "square.json"
    square.write_text(json.dumps(_SQUARE_SPEC))
    _, want = run(capsys, "metric", "--norm", str(square))
    np.testing.assert_allclose(strict_json(out)["metric"], strict_json(want)["metric"],
                               rtol=1e-12, atol=0)


_CHART = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}


_FIXED_ANGLE = {"kind": "constant", "value": 0.4}


def _rotor(psi, chart=_CHART):
    return {"chart": chart, "field": {"family": "rotor", "psi": psi}}


def _conformal(factor):
    return {"chart": _CHART, "field": {
        "family": "conformal-rescale", "factor": factor,
        "base": {"family": "constant",
                 "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}}}}


@pytest.mark.parametrize("command, spec, problem", [
    ("metric", {"family": "lp", "p": 2, "dim": 2.7}, "must be an integer"),
    ("metric", {"family": "quartic-axial", "dim": 2.7}, "must be an integer"),
    ("field", {"chart": _CHART, "field": {
        "family": "rotor", "psi": {"kind": "linear", "slope": 0.8, "axis": 1.7}}},
     "must be an integer"),
    ("field", {"chart": _CHART, "field": {
        "family": "rotor", "psi": {"kind": "linear", "slope": 0.8, "axis": 5}}},
     "axis 5 is not an axis"),
    ("metric", {"family": "lp", "p": 2, "dim": 1e308}, "dimension must be between 1 and"),
    ("metric", {"family": "quartic-axial", "dim": 7}, "dimension must be between 2 and"),
    ("field", _rotor({"kind": "linear"}), "'psi' of kind 'linear' is missing key 'slope'"),
    ("field", _rotor({"kind": "constant"}), "'psi' of kind 'constant' is missing key 'value'"),
    ("field", _rotor({"kind": "linear", "slope": float("nan")}), "'slope' must be finite"),
    ("field", _rotor({"kind": "constant", "value": "nan"}), "'value' must be finite"),
    ("field", _rotor({"kind": "linear", "slope": 0.8, "offset": [1]}),
     "'offset' must be a number"),
    ("field", _conformal({"kind": "one-plus-sin", "amp": "inf"}), "'amp' must be finite"),
    ("field", _conformal({"kind": "exp-linear", "rate": 1e400}), "'rate' must be finite"),
    ("field", _rotor(1e308), "'psi' must be an object"),
    ("field", _conformal(1e308), "'factor' must be an object"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1.0, -1.0], "hi": [float("inf"), 1.0]}),
     "chart bounds and widths must be finite"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1.0, -1.0], "hi": ["inf", 1.0]}),
     "chart bounds and widths must be finite"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1e308, -1.0], "hi": [1e308, 1.0]}),
     "chart bounds and widths must be finite"),
    ("metric", {"family": "lp", "p": 1e999, "dim": 2}, "'p' must be finite"),
    ("metric", {"family": "euclidean", "matrix": [[1e999, 0.0], [0.0, 1.0]]},
     "matrix entries must be finite"),
], ids=["lp-dim", "quartic-dim", "fractional-axis", "axis-off-chart", "dim-1e308",
        "dim-over-cap", "linear-without-slope", "constant-without-value", "nan-slope",
        "nan-string-value", "list-offset", "inf-string-amp", "overflowing-rate",
        "psi-not-an-object", "factor-not-an-object", "infinite-chart-bound",
        "inf-string-chart-bound", "infinite-chart-width", "overflowing-p",
        "overflowing-euclidean-matrix"])
def test_exit_code_bad_integer_field(tmp_path, capsys, command, spec, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    flag = "--norm" if command == "metric" else "--structure"
    argv = [command, flag, str(bad)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "bad.csv")]
    assert main(argv) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("text, problem", [
    ('{"family": "lp", "p": 1%s, "dim": 2}' % ("0" * 400), "'p' must be finite"),
    ('{"family": "euclidean", "matrix": [[1%s, 0], [0, 1]]}' % ("0" * 400), "too large"),
    ('{"family": "lp", "p": 1%s, "dim": 2}' % ("0" * 5000), "invalid JSON"),
], ids=["p-past-float-range", "matrix-past-float-range", "past-parser-digit-limit"])
def test_metric_exit_code_huge_json_integer(tmp_path, capsys, text, problem):
    # JSON integers are exact: past the float range they overflow on conversion
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["metric", "--norm", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and problem in captured.err


@pytest.mark.parametrize("p", ["inf", "infinity", "3.5"])
def test_metric_of_p_given_as_string(tmp_path, capsys, p):
    # "inf" and "infinity" name the max norm; a numeric string reads as its number
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"family": "lp", "p": p, "dim": 2}))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    strict_json(out)


@pytest.mark.parametrize("p", [200, 400, 1e6])
def test_metric_of_large_p_near_max_norm(tmp_path, capsys, p):
    # |x_i|^p over- and underflows unless each row is scaled by its largest entry
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"family": "lp", "p": p, "dim": 2}))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    np.testing.assert_allclose(strict_json(out)["metric"], 0.75 * np.eye(2),
                               rtol=0, atol=0.05 / p + 1e-7)


def _nested(spec, layers):
    """``spec`` wrapped in one layer per entry of ``layers``, innermost first."""
    for family in layers:
        if family == "weighted-sum":
            spec = {"family": "weighted-sum", "w1": 0.5, "w2": 0.5,
                    "first": spec, "second": _SQUARE_SPEC}
        else:
            spec = {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "inner": spec}
    return spec


_ALTERNATING = ["weighted-sum", "linear-image"] * 450


@pytest.mark.parametrize("spec", [
    _nested(_SQUARE_SPEC, ["weighted-sum"] * 900),
    _nested(_SQUARE_SPEC, _ALTERNATING),
    _nested(_SQUARE_SPEC, _ALTERNATING[:64]),
    {"family": "weighted-sum", "w1": "nan", "w2": 0.5,
     "first": _SQUARE_SPEC, "second": _SQUARE_SPEC},
    {"family": "weighted-sum", "w1": "inf", "w2": 0.5,
     "first": _SQUARE_SPEC, "second": _SQUARE_SPEC},
], ids=["deep-weighted-sum", "deep-alternating", "past-bound", "nan-weight", "inf-weight"])
def test_metric_exit_code_bad_norm_spec(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 2 and out == ""


def test_exit_code_json_nested_past_the_parser(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 2 and out == ""


def test_metric_of_norm_at_nesting_bound(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_nested(_SQUARE_SPEC, _ALTERNATING[:63])))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    strict_json(out)


_CHART_3D = {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("command, grid", [("field", "9x9x9"), ("fingerprint", "3x3x3")])
@pytest.mark.parametrize("field", [
    {"family": "constant", "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    {"family": "rotor", "psi": {"kind": "constant", "value": 0.4}},
    {"family": "l1-l2-interpolation"},
], ids=["constant-2d-norm", "rotor", "l1-l2"])
def test_exit_code_norm_off_chart_dimension(tmp_path, capsys, command, grid, field):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"chart": _CHART_3D, "field": field}))
    code = main([command, "--structure", str(spec), "--grid", grid,
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 2
    assert "3D chart" in capsys.readouterr().err


@pytest.mark.parametrize("command, grid", [
    ("field", "-5x5"), ("fingerprint", "0x0"), ("fingerprint", "3x0"), ("berwald", "-1x9")])
def test_exit_code_grid_axis_below_one(spec_dir, tmp_path, capsys, command, grid):
    argv = [command, "--structure", str(spec_dir / "structure-constant-square.json"),
            f"--grid={grid}"]
    if command != "berwald":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["metric", "compare", "berwald"])
def test_exit_code_bad_tol(spec_dir, tmp_path, capsys, command, tol):
    if command == "metric":
        argv = ["metric", "--norm", str(spec_dir / "norm-square-max.json")]
    elif command == "berwald":
        argv = ["berwald", "--structure", str(spec_dir / "structure-constant-square.json"),
                "--grid", "9x9"]
    else:
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n")
        argv = ["compare", "--a", str(cloud), "--b", str(cloud)]
    code, out = run(capsys, *argv, f"--tol={tol}")
    assert code == 2 and out == ""


def test_metric_at_refinement_cap_reports_null_tolerance(spec_dir, capsys):
    code, out = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"),
                    "--quad-level", "4")
    assert code == 0
    quadrature = strict_json(out)["quadrature"]
    assert quadrature["achieved_tol"] is None and not quadrature["converged"]


def test_dump_json_rejects_non_finite():
    with pytest.raises(NumericalFailure):
        specio.dump_json({"value": float("nan")})
    with pytest.raises(NumericalFailure):
        specio.dump_json([float("inf")])


@pytest.mark.parametrize("argv", [
    ("field", "--grid", "100000x100000"),
    ("fingerprint", "--grid", "1000x1000"),
    ("berwald", "--grid", "1000x1000"),
    ("field", "--quad-level", "40"),
], ids=["field-grid", "fingerprint-grid", "berwald-grid", "quad-level"])
def test_exit_code_over_cap(spec_dir, tmp_path, capsys, argv):
    # every input here is refused before any array is built
    command = [*argv, "--structure", str(spec_dir / "structure-constant-square.json")]
    if argv[0] != "berwald":
        command += ["--out", str(tmp_path / "out.csv")]
    code, out = run(capsys, *command)
    assert code == 2 and out == ""
    assert not (tmp_path / "out.csv").exists()


def test_out_of_memory_exits_3(spec_dir, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("blgeom.cli.bl_field", exhausted)
    code = main(["field", "--structure", str(spec_dir / "structure-constant-square.json"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "out of memory" in capsys.readouterr().err


_CONFORMAL_3D = {"chart": _CHART_3D, "field": {
    "family": "conformal-rescale",
    "base": {"family": "constant",
             "norm": {"family": "euclidean", "matrix": np.eye(3).tolist()}},
    "factor": {"kind": "one-plus-sin", "amp": 0.3, "axis": 0}}}


# the benchmark's two 3D structures (perfbench/specs)
_BENCH_3D = {
    "conformal-euclidean": {
        "chart": {"lo": [-1.5] * 3, "hi": [1.5] * 3},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean", "matrix": np.eye(3).tolist()}},
                  "factor": {"kind": "one-plus-sin", "amp": 0.3, "freq": 2.0, "axis": 0}}},
    "quartic-axial": {"chart": _CHART_3D, "field": {
        "family": "constant", "norm": {"family": "quartic-axial", "dim": 3}}},
}


def test_berwald_3d_conformal_undecided_at_9(tmp_path, capsys):
    spec = tmp_path / "conformal-3d.json"
    spec.write_text(json.dumps(_BENCH_3D["conformal-euclidean"]))
    assert main(["berwald", "--structure", str(spec), "--grid", "9x9x9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verdict undecided at this lattice: Berwald defect" in captured.err


def test_berwald_3d_quartic_locally_minkowski(tmp_path, capsys):
    spec = tmp_path / "quartic-3d.json"
    spec.write_text(json.dumps(_BENCH_3D["quartic-axial"]))
    code, out = run(capsys, "berwald", "--structure", str(spec), "--grid", "9x9x9", "--assert")
    assert code == 0
    assert strict_json(out)["verdict"] == "locally Minkowski"


# positive exactly on the constant-norm fields, as criterion 8 of the
# acceptance tests has it
_LOCALLY_MINKOWSKI = {
    "constant-square": True,
    "holonomy-extension-square": True,
    "rotor-constant": True,
    "rotor-linear": False,
    "l1-l2-interpolation": False,
    "conformal-euclidean": False,
}


@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES))
def test_berwald_decides_catalog_structures(spec_dir, capsys, name):
    code, out = run(capsys, "berwald", "--structure", str(spec_dir / f"structure-{name}.json"))
    assert code == 0
    want = "locally Minkowski" if _LOCALLY_MINKOWSKI[name] else "not locally Minkowski"
    assert strict_json(out)["verdict"] == want


@pytest.mark.parametrize("command, grid", [("field", "9x9x9"), ("fingerprint", "8x8x8")])
def test_3d_structure_default_grid(tmp_path, capsys, command, grid):
    spec = tmp_path / "conformal-3d.json"
    spec.write_text(json.dumps(_CONFORMAL_3D))
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert main([command, "--structure", str(spec), "--out", str(default)]) == 0
    assert main([command, "--structure", str(spec), "--grid", grid,
                 "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("command", ["field", "fingerprint"])
@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES)
                         + [f"3d-{name}" for name in sorted(_BENCH_3D)])
def test_csv_bytes_match_savetxt(spec_dir, tmp_path, capsys, command, name):
    # %.17g reads back exactly, so np.savetxt of the rows read back, under
    # the same header, writes the same bytes
    spec = spec_dir / f"structure-{name}.json"
    if name.startswith("3d-"):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_BENCH_3D[name[3:]]))
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    assert main([command, "--structure", str(spec), "--out", str(out)]) == 0
    header = out.read_text().split("\n")[:2]
    rows = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
    np.savetxt(ref, rows, delimiter=",", header="\n".join(header), comments="", fmt="%.17g")
    assert out.read_bytes() == ref.read_bytes()


def test_field_builds_no_derivative_spline(spec_dir, tmp_path, monkeypatch):
    # only christoffel needs the spline of the metric's partials
    def no_jet(self):
        raise AssertionError("field built the derivative spline")

    monkeypatch.setattr(manifold.MetricField, "_jet", property(no_jet))
    assert main(["field", "--structure", str(spec_dir / "structure-conformal-euclidean.json"),
                 "--out", str(tmp_path / "field.csv")]) == 0


@pytest.mark.parametrize("command", ["field", "berwald", "fingerprint"])
def test_structure_commands_take_no_mc_seed(spec_dir, tmp_path, capsys, command):
    argv = [command, "--structure", str(spec_dir / "structure-constant-square.json"),
            "--mc-seed", "1"]
    if command != "berwald":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2


@pytest.mark.parametrize("name", ["hexagon", "quartic-axial-2d", "euclidean-3d"])
def test_metric_evaluates_no_rule_after_converging(spec_dir, capsys, monkeypatch, name):
    load, loaded = specio.load_norm, []

    def load_counting(path):
        loaded.append(CountingNorm(load(path)))
        return loaded[-1]

    monkeypatch.setattr(specio, "load_norm", load_counting)
    code, out = run(capsys, "metric", "--norm", str(spec_dir / f"norm-{name}.json"))
    assert code == 0
    payload = strict_json(out)
    norm, level = loaded[0], payload["quadrature"]["level"]
    # one evaluation per level visited by the converge loop, none after it
    quads = [auto_quadrature(norm.inner, level=lvl) for lvl in range(level + 1)]
    assert norm.rule_calls == [len(q) for q in quads]
    # the reported moments are those of the converged rule
    assert payload["dual_matrix"] == dual_scalar_matrix(norm.inner, quads[-1]).tolist()
    assert payload["unit_ball_volume"] == unit_ball_volume(norm.inner, quads[-1])


def test_berwald_rejects_lattice_without_room_for_loops(spec_dir, capsys):
    rotor = str(spec_dir / "structure-rotor-linear.json")
    # at 7 nodes per axis three spacings are half the chart: loops of no extent
    code = main(["berwald", "--structure", rotor, "--grid", "7x7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "lattice 7x7" in captured.err and "margin" not in captured.err
    code, out = run(capsys, "berwald", "--structure", rotor, "--grid", "8x8")
    assert code == 0
    assert strict_json(out)["verdict"] == "not locally Minkowski"


@pytest.mark.parametrize("case", [
    "metric-out", "field-out", "fingerprint-out", "norm-dir", "structure-dir", "emit"])
def test_exit_code_file_error(spec_dir, tmp_path, capsys, case):
    norm = str(spec_dir / "norm-square-max.json")
    structure = str(spec_dir / "structure-constant-square.json")
    missing = str(tmp_path / "missing" / "out")
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "metric-out": ["metric", "--norm", norm, "--out", missing],
        "field-out": ["field", "--structure", structure, "--grid", "9x9", "--out", missing],
        "fingerprint-out": ["fingerprint", "--structure", structure, "--grid", "2x2",
                            "--out", missing],
        "norm-dir": ["metric", "--norm", str(tmp_path)],
        "structure-dir": ["field", "--structure", str(tmp_path), "--out", missing],
        "emit": ["examples", "--emit", str(blocker / "specs")],
    }[case]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("cell", ["nan", "abc", "inf"])
def test_compare_rejects_non_finite_entry(tmp_path, capsys, cell):
    good = tmp_path / "good.csv"
    good.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n"
                   f"0,0,3,3.4,0.8,1.1\n1,0,3,{cell},0.8,1.1\n")
    code = main(["compare", "--a", str(good), "--b", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(bad) in captured.err and "row 2" in captured.err


_EUCLIDEAN_4D = {"family": "euclidean", "matrix": np.eye(4).tolist()}


@pytest.mark.parametrize("command", ["invariants", "fingerprint"])
def test_exit_code_unsupported_dimension(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    if command == "invariants":
        spec.write_text(json.dumps(_EUCLIDEAN_4D))
        argv = ["invariants", "--norm", str(spec)]
    else:
        spec.write_text(json.dumps({
            "chart": {"lo": [-1.0] * 4, "hi": [1.0] * 4},
            "field": {"family": "constant", "norm": _EUCLIDEAN_4D}}))
        argv = ["fingerprint", "--structure", str(spec), "--grid", "1x1x1x1",
                "--out", str(tmp_path / "cloud.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ") and "n in {2, 3}" in captured.err


_EYE_2D = {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}

# one valid object of every norm family, field family and scalar-field kind
_NORM_OF = {
    "euclidean": _EYE_2D,
    "lp": {"family": "lp", "p": 3, "dim": 2},
    "polytope": _SQUARE_SPEC,
    "linear-image": {"family": "linear-image", "matrix": [[2.0, 0.0], [0.0, 1.0]],
                     "inner": _EYE_2D},
    "weighted-sum": {"family": "weighted-sum", "w1": 0.5, "w2": 0.5,
                     "first": _EYE_2D, "second": _SQUARE_SPEC},
    "quartic-axial": {"family": "quartic-axial", "dim": 2},
}
_FIELD_OF = {
    "constant": {"family": "constant", "norm": _EYE_2D},
    "l1-l2-interpolation": {"family": "l1-l2-interpolation"},
    "rotor": {"family": "rotor", "psi": _FIXED_ANGLE},
    "conformal-rescale": _conformal({"kind": "constant", "value": 2.0})["field"],
    "holonomy-extension": {"family": "holonomy-extension", "norm": _EYE_2D},
}
_SCALAR_OF = {
    "constant": {"kind": "constant", "value": 2.0},
    "one-plus-sin": {"kind": "one-plus-sin", "amp": 0.3},
    "linear": {"kind": "linear", "slope": 0.1, "offset": 2.0},
    "exp-linear": {"kind": "exp-linear", "rate": 0.5},
}


def _as_structure(field):
    return {"chart": _CHART, "field": field}


def _identity(spec):
    return spec


# (command, spec of an object, object, misspelled key to add to the object)
_MISSPELLED = dict(
    [(f"norm-{family}", ("metric", _identity, spec, typo)) for (family, spec), typo in zip(
        _NORM_OF.items(), ["matirx", "dims", "vertex", "iner", "w3", "dimension"])]
    + [(f"field-{family}", ("field", _as_structure, spec, typo))
       for (family, spec), typo in zip(
           _FIELD_OF.items(), ["nrom", "chart", "bsae", "factr", "norms"])]
    + [(f"kind-{kind}", ("field", _conformal, spec, typo)) for (kind, spec), typo in zip(
        _SCALAR_OF.items(), ["val", "frq", "ofset", "axes"])]
    + [("top-level", ("field", _identity, _rotor(_FIXED_ANGLE), "chrat")),
       ("chart", ("field", lambda chart: _rotor(_FIXED_ANGLE, chart), _CHART, "high"))])


@pytest.mark.parametrize("case", sorted(_MISSPELLED))
def test_unknown_key_exit_2(tmp_path, capsys, case):
    command, spec_of, obj, typo = _MISSPELLED[case]
    path = tmp_path / "spec.json"
    flag = "--norm" if command == "metric" else "--structure"
    argv = [command, flag, str(path)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "field.csv")]
    path.write_text(json.dumps(spec_of(obj)))
    assert main(argv) == 0
    capsys.readouterr()
    path.write_text(json.dumps(spec_of({**obj, typo: 1.0})))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unknown key {typo!r}" in captured.err


@pytest.mark.parametrize("argv", [
    ["metric", "--mc-seed", "-1"], ["ellipsoid", "--mc-seed", "-1"],
    ["invariants", "--mc-seed", "-1"], ["verify", "--suite", "norms", "--seed", "-1"]],
    ids=["metric", "ellipsoid", "invariants", "verify"])
def test_negative_seed_exit_2(spec_dir, capsys, argv):
    if argv[0] != "verify":
        argv = argv + ["--norm", str(spec_dir / "norm-square-max.json")]
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("name", ["hexagon", "quartic-axial-2d", "euclidean-3d"])
def test_ellipsoid_evaluates_f_once(spec_dir, capsys, monkeypatch, name):
    load, loaded = specio.load_norm, []

    def load_counting(path):
        loaded.append(CountingNorm(load(path)))
        return loaded[-1]

    monkeypatch.setattr(specio, "load_norm", load_counting)
    code, _ = run(capsys, "ellipsoid", "--norm", str(spec_dir / f"norm-{name}.json"))
    assert code == 0
    norm = loaded[0]
    assert norm.rule_calls == [len(auto_quadrature(norm.inner))]


_ONE_PLUS_SIN = {"kind": "one-plus-sin", "amp": 0.3, "freq": 1.0, "phase": 0.0}

# (command, spec, path to a numeric slot, bool to put there): a bool in the
# slot exits 2; the spec with the bool's number there exits 0
_NUMERIC_SLOTS = {
    "euclidean-matrix": ("metric", _EYE_2D, ("matrix", 0, 0), True),
    "linear-image-matrix": ("metric", _NORM_OF["linear-image"], ("matrix", 1, 1), True),
    "folded-layer-matrix": (
        "metric", {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                   "inner": _NORM_OF["linear-image"]}, ("inner", "matrix", 1, 1), True),
    "polytope-vertices": ("metric", _SQUARE_SPEC, ("vertices", 0, 0), True),
    "lp-p": ("metric", _NORM_OF["lp"], ("p",), True),
    "weighted-sum-w1": ("metric", _NORM_OF["weighted-sum"], ("w1",), True),
    "weighted-sum-w2": ("metric", _NORM_OF["weighted-sum"], ("w2",), True),
    "constant-value": ("field", _conformal(_SCALAR_OF["constant"]),
                       ("field", "factor", "value"), True),
    "one-plus-sin-amp": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "amp"), True),
    "one-plus-sin-freq": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "freq"), True),
    "one-plus-sin-phase": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "phase"), False),
    "linear-slope": ("field", _conformal(_SCALAR_OF["linear"]),
                     ("field", "factor", "slope"), True),
    "linear-offset": ("field", _conformal(_SCALAR_OF["linear"]),
                      ("field", "factor", "offset"), True),
    "exp-linear-rate": ("field", _conformal(_SCALAR_OF["exp-linear"]),
                        ("field", "factor", "rate"), True),
    "chart-lo": ("field", _rotor(_FIXED_ANGLE), ("chart", "lo", 0), False),
    "chart-hi": ("field", _rotor(_FIXED_ANGLE), ("chart", "hi", 1), True),
}


def _with(spec, path, value):
    """A copy of ``spec`` with ``value`` at ``path``."""
    spec = copy.deepcopy(spec)
    obj = spec
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    return spec


@pytest.mark.parametrize("case", sorted(_NUMERIC_SLOTS))
def test_bool_in_numeric_slot_exit_2(tmp_path, capsys, case):
    command, spec, path, flag = _NUMERIC_SLOTS[case]
    spec_path = tmp_path / "spec.json"
    argv = [command, "--norm" if command == "metric" else "--structure", str(spec_path)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "field.csv")]
    spec_path.write_text(json.dumps(_with(spec, path, float(flag))))
    assert main(argv) == 0
    capsys.readouterr()
    spec_path.write_text(json.dumps(_with(spec, path, flag)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    key = [step for step in path if isinstance(step, str)][-1]
    assert captured.out == "" and f"key {key!r}" in captured.err
