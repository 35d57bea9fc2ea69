import pytest

from compare import compare, verdict


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 0.92]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent[:9], change[:9], "lower", 0.1)["verdict"] == "no regression"
    mixed = change[:8] + [1.05, 1.06]
    assert verdict(parent, mixed, "lower", 0.1)["wins"] == 8
    assert verdict(parent, mixed, "lower", 0.1)["verdict"] == "no regression"


def test_regression_and_unresolved():
    parent = [10.0] * 5 + [10.2] * 5
    assert verdict(parent, [8.5] * 10, "higher", 0.1)["verdict"] == "regression"
    assert verdict(parent, [9.5] * 10, "higher", 0.1)["verdict"] == "no regression"
    noisy = [10.0, 14.0] * 5
    assert verdict(noisy, [9.0] * 10, "higher", 0.1)["verdict"] == "unresolved"


def _record(pair, value, env="a", failed=0):
    return {"workload": "w", "pair": pair, "seed": pair + 1, "failed": failed,
            "environment": {"nproc": 2, "numpy": env, "seed": pair + 1},
            "end_to_end": {"m": {"value": value}}}


BENCH = {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}


def test_mismatched_environments_are_refused():
    with pytest.raises(ValueError, match="environments"):
        compare([_record(i, 1.0) for i in range(3)],
                [_record(i, 1.0, env="b") for i in range(3)], BENCH)


def test_a_gain_with_more_failures_does_not_count():
    rows, notes = compare([_record(i, 1.0 + 0.001 * i) for i in range(10)],
                          [_record(i, 0.5, failed=1) for i in range(10)], BENCH)
    assert rows[0][2]["verdict"] == "gain not counted"
    assert any("no gain counts" in n for n in notes)


def test_a_missing_workload_is_refused():
    with pytest.raises(ValueError, match="every workload"):
        compare([_record(i, 1.0) for i in range(3)], [_record(i, 1.0) for i in range(3)],
                {**BENCH, "workloads": [{"name": "w"}, {"name": "v"}]})
