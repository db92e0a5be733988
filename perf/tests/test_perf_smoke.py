"""Self-tests of the benchmark at smoke size.

Run with ``python -m pytest perf/tests -q`` (outside tier-1's ``testpaths``).
One traced smoke suite is shared by the tests that read its results.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERF_DIR)

import compare  # noqa: E402
import metrics  # noqa: E402
import run as suite  # noqa: E402

BENCHMARK = suite.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIM_WORKLOADS = [w for w in WORKLOADS if w != "live_udp"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke():
    return suite.run_suite(WORKLOADS, seed=2004, seconds=1.0, repeats=2,
                           trace=True, smoke=True)


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = WORKLOADS[:]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_and_code_name_the_same_metrics():
    for section, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert listed == table


def test_every_metric_is_emitted_with_its_unit(smoke):
    for workload in WORKLOADS:
        entry = smoke["workloads"][workload]
        assert set(entry["end_to_end"]) == set(metrics.END_TO_END)
        assert set(entry["per_layer"]) == set(metrics.PER_LAYER)
        for tag, table in (("run0", metrics.END_TO_END),
                           ("traced", metrics.PER_LAYER)):
            with open(os.path.join(suite.OUT_DIR, f"{workload}.{tag}.json")) as fh:
                detail = json.load(fh)
            assert detail["correct"] and detail["attempted"] >= 1
            assert {name: m["unit"] for name, m in detail["metrics"].items()} == table
        # never 0: the driver takes ratios of the end-to-end medians
        assert all(v > 0 for values in entry["end_to_end"].values() for v in values)


def test_layer_self_times_account_for_the_traced_run(smoke):
    span_metrics = set(metrics.SPAN_LAYER.values())
    for workload in SIM_WORKLOADS:
        layers = smoke["workloads"][workload]["per_layer"]
        with open(os.path.join(suite.OUT_DIR, f"{workload}.trace.json")) as fh:
            trace = json.load(fh)
        run_s = trace["traced_run_s"]
        attributed = sum(layers[name] for name in span_metrics)
        unattributed = layers["trace.unattributed_share"] * run_s
        assert attributed + unattributed == pytest.approx(run_s, rel=1e-6)
        assert layers["trace.unattributed_share"] < 0.05
        assert set(trace["layers"]) <= set(metrics.SPAN_LAYER)
        assert trace["spans"], "no root event was sampled"
        by_id = {span["id"]: span for span in trace["spans"]}
        for span in trace["spans"]:
            assert span["start_ns"] <= span["end_ns"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["root"] == span["root"]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]


def test_two_traced_smoke_runs_agree_on_every_count(smoke):
    workload = "lossy_faults"
    again = suite.run_child(workload, 2004, 1.0, True, True, "again")
    first = smoke["workloads"][workload]["per_layer"]
    for name, unit in metrics.PER_LAYER.items():
        if unit == "count":
            assert again["metrics"][name]["value"] == first[name], name
    assert again["fingerprint"] == smoke["workloads"][workload]["fingerprint"]


def test_smoke_workloads_exercise_their_layers(smoke):
    layers = {w: smoke["workloads"][w]["per_layer"] for w in WORKLOADS}
    assert layers["lossy_faults"]["faults.hook_calls"] > 0
    assert layers["lossy_faults"]["transport.lost"] > 0
    assert layers["lossy_faults"]["overlay.invariant_sweeps"] > 0
    for workload in WORKLOADS:
        if workload != "lossy_faults":
            assert layers[workload]["faults.hook_calls"] == 0
    assert layers["live_udp"]["wire.encode_calls"] > 0
    assert layers["live_udp"]["sim.events"] == 0
    assert layers["gnutella_churn"]["wire.encode_calls"] == 0
    assert layers["gnutella_churn"]["sim.events"] > 0


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, base, "lower", 0.08) == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.08) == "regressed"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.08) == "regressed"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.08) == "improved"
    # too few pairs to claim a gain
    assert compare.verdict(base[:3], [v * 0.8 for v in base[:3]], "lower", 0.08) == "unchanged"
    # spread wider than the bound: cannot tell
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5]
    assert compare.verdict(noisy, noisy, "lower", 0.08) == "unresolved"


def test_compare_flags_changed_behaviour(smoke):
    changed = json.loads(json.dumps(smoke))
    changed["workloads"]["corpnet_lookups"]["fingerprint"] = "1:2:3:4:5"
    result = compare.compare(smoke, changed, BENCHMARK)
    assert result["changed"] and "corpnet_lookups" in result["changed"][0]
    # identical samples: never a verdict of change (smoke timings are too
    # noisy for every row to resolve)
    assert {row["verdict"] for row in result["rows"]} <= {"unchanged", "unresolved"}
    assert len(result["rows"]) == len(WORKLOADS) * len(metrics.END_TO_END)


def test_bench_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/, a run must exit
    non-zero without printing a result."""
    shutil.copy(suite.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "corpnet_lookups", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("spoilt, clean", [(1, True), (3, False)])
def test_live_measurement_the_host_derailed_is_repeated(monkeypatch, spoilt,
                                                        clean):
    """A spoilt attempt is repeated on a fresh overlay and listed; a program
    that misroutes on every attempt still fails the run."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(PERF_DIR), "src"))
    import live

    measure, calls = live._measure, []

    async def sometimes_misrouted(*args):
        got = await measure(*args)
        calls.append(got)
        if len(calls) <= spoilt:
            got["wrong"] = 7
        return got

    monkeypatch.setattr(live, "_measure", sometimes_misrouted)
    result = live.run(2004, 1.0, True, 1, None)
    assert len(calls) == min(spoilt + 1, live.MAX_ATTEMPTS)
    assert len(result["sizes"]["derailed_attempts"]) == spoilt
    assert (result["problems"] == []) == clean
    assert result["failed"] == (0 if clean else 7)
