"""Sweep-spec expansion: cross-products, run ids, derived seeds."""

import json

import pytest

from repro.harness.spec import (
    SpecError,
    SweepSpec,
    derive_run_seed,
    make_run_id,
)
from repro.sim.rng import derive_stream_seed


def spec(**overrides):
    doc = dict(name="t", experiment="fig3", base={"scale": 0.01},
               grid={}, seeds=[1])
    doc.update(overrides)
    return SweepSpec.from_json(doc)


def test_expand_cross_product_and_order():
    s = spec(grid={"a": [1, 2], "b": [10, 20]}, seeds=[5, 6])
    jobs = s.expand()
    assert len(jobs) == 2 * 2 * 2
    # Deterministic order: sorted grid axes, spec-order seeds innermost.
    assert [j.run_id for j in jobs[:2]] == [
        "fig3-a=1-b=10--s5", "fig3-a=1-b=10--s6"]
    # Base parameters are merged into every job.
    assert all(j.params["scale"] == 0.01 for j in jobs)
    assert jobs[-1].params == {"scale": 0.01, "a": 2, "b": 20}
    # Expansion is pure: a second call yields identical jobs.
    assert s.expand() == jobs


def test_run_ids_unique():
    s = spec(grid={"a": [1, "1"]}, seeds=[1])  # tokens collide: "a=1"
    ids = [j.run_id for j in s.expand()]
    assert len(set(ids)) == len(ids)


def test_run_id_sanitised_and_bounded():
    run_id = make_run_id("fig6", {"loss_rates": [0.0, 0.05]}, 3)
    assert run_id == "fig6-loss_rates=0.0,0.05--s3"
    long = make_run_id("fig6", {"p": "x" * 300}, 1)
    assert len(long) < 130
    assert long.endswith("--s1")


def test_derived_seeds_decorrelate_grid_points():
    s = spec(grid={"a": [1, 2]}, seeds=[7])
    seeds = {j.derived_seed for j in s.expand()}
    assert len(seeds) == 2  # same master seed, different params
    # Derivation is the repo-wide rule from repro.sim.rng and is stable.
    job = s.expand()[0]
    params = dict(job.params)
    name = f"fig3:{json.dumps(params, sort_keys=True, indent=1)}"
    assert derive_run_seed(7, "fig3", params) == derive_stream_seed(7, name)
    # Independent of the sweep name.
    assert spec(name="other", grid={"a": [1, 2]}, seeds=[7]) \
        .expand()[0].derived_seed == job.derived_seed


def test_spec_hash_stable_and_sensitive():
    assert spec().spec_hash() == spec().spec_hash()
    assert spec().spec_hash() != spec(seeds=[2]).spec_hash()


def test_round_trip_via_file(tmp_path):
    s = spec(grid={"a": [1]}, seeds=[1, 2])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(s.to_json()))
    loaded = SweepSpec.from_file(path)
    assert loaded == s
    assert loaded.spec_hash() == s.spec_hash()


@pytest.mark.parametrize("bad", [
    dict(name=""),
    dict(name="has space"),
    dict(experiment=""),
    dict(seeds=[]),
    dict(seeds=[1, 1]),
    dict(seeds=[1.5]),
    dict(seeds=[True]),
    dict(grid={"a": []}),
    dict(grid={"a": 3}),
    dict(base={"a": 1}, grid={"a": [1]}),
    dict(base={"seed": 1}),
    dict(grid={"seed": [1, 2]}),
    dict(bogus_field=1),
    dict(schema=99),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(SpecError):
        spec(**bad)


def test_from_file_errors(tmp_path):
    with pytest.raises(SpecError, match="cannot read"):
        SweepSpec.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecError, match="not valid JSON"):
        SweepSpec.from_file(bad)
