"""Aggregation: flattening, grouping across seeds, mean/CI, rendering."""

import math

import pytest

from repro.harness.aggregate import (
    flatten_scalars,
    format_sweep_report,
    group_runs,
    mean_ci95,
)
from repro.harness.spec import RunSpec, SweepSpec
from repro.harness.store import ResultStore, StoreError, make_artifact


def artifact(run_id, seed, params, result=None, error=None):
    j = RunSpec(run_id=run_id, experiment="e", params=params, seed=seed,
                derived_seed=seed)
    status = "ok" if error is None else "error"
    return make_artifact(j, status, result=result, error=error)


def test_flatten_scalars_skips_series_and_flags():
    result = {
        "rows": {"0.05": {"rdp": 1.5, "lookups": 30}},
        "series": [[0.0, 1.0], [1.0, 2.0]],
        "converged": True,
        "reconvergence": None,
    }
    assert flatten_scalars(result) == {
        "rows.0.05.rdp": 1.5,
        "rows.0.05.lookups": 30.0,
    }


def test_mean_ci95():
    mean, ci = mean_ci95([2.0])
    assert (mean, ci) == (2.0, 0.0)
    mean, ci = mean_ci95([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert ci == pytest.approx(4.302653 * 1.0 / math.sqrt(3))  # t(0.975, 2)


def test_group_runs_across_seeds():
    artifacts = [
        artifact("e-a=1--s1", 1, {"a": 1}, result={"m": 1.0}),
        artifact("e-a=1--s2", 2, {"a": 1}, result={"m": 3.0}),
        artifact("e-a=2--s1", 1, {"a": 2}, result={"m": 10.0}),
        artifact("e-a=2--s2", 2, {"a": 2}, error={"kind": "exception",
                                                  "message": "boom"}),
    ]
    groups = group_runs(artifacts)
    assert len(groups) == 2
    by_a = {g["params"]["a"]: g for g in groups}
    assert by_a[1]["metrics"]["m"] == [1.0, 3.0]
    assert by_a[1]["seeds"] == [1, 2]
    assert by_a[2]["metrics"]["m"] == [10.0]  # failed run excluded


def test_format_sweep_report_end_to_end(tmp_path):
    spec = SweepSpec.from_json(dict(
        name="t", experiment="e", base={}, grid={"a": [1, 2]}, seeds=[1, 2]))
    store = ResultStore(tmp_path)
    artifacts = [
        artifact("e-a=1--s1", 1, {"a": 1}, result={"m": 1.0}),
        artifact("e-a=1--s2", 2, {"a": 1}, result={"m": 3.0}),
        artifact("e-a=2--s1", 1, {"a": 2}, result={"m": 10.0, "z": 0.5}),
        artifact("e-a=2--s2", 2, {"a": 2}, error={"kind": "timeout",
                                                  "message": "too slow"}),
    ]
    store.init_sweep(spec, [a["run_id"] for a in artifacts])
    for a in artifacts:
        store.write_artifact(a)

    report = format_sweep_report(tmp_path)
    assert "3 ok, 1 failed, 0 pending" in report
    assert "e[a=1]" in report and "e[a=2]" in report
    assert "2.000" in report  # mean of m across seeds at a=1
    assert "timeout: too slow" in report

    filtered = format_sweep_report(tmp_path, metrics=["z"])
    assert "z" in filtered and " m " not in filtered


def test_report_on_non_sweep_dir(tmp_path):
    with pytest.raises(StoreError, match="not a sweep directory"):
        format_sweep_report(tmp_path)
