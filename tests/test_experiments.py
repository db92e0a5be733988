"""Smoke tests for the experiment modules (tiny scales).

The benchmarks run each experiment at reporting scale; these tests verify
that every experiment module runs end-to-end, returns the documented
structure (a JSON-round-trippable dict — the sweep-harness contract), and
formats a report.  Each also pins the first 16 hex digits of the SHA-256 of
its canonical result plus its report, so a refactor of the experiment
scaffolding cannot change a number, a key or a byte of a report unseen.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    ablation,
    attacks,
    design_ablations,
    faults,
    fig3_failure_rates,
    fig4_traces,
    fig5_sessions,
    fig6_loss,
    fig7_params,
    fig8_squirrel,
    selftuning,
    topologies,
)
from repro.experiments.reporting import downsample, format_series, format_table
from repro.experiments.resultio import dumps_canonical, to_jsonable
from repro.experiments.scenarios import Scenario, make_topology
from repro.sim.rng import RngStreams


def assert_round_trips(result):
    """Every experiment result must survive a JSON round-trip unchanged."""
    assert json.loads(json.dumps(to_jsonable(result))) == result


def assert_pinned(module, result, digest):
    """The result and its report are byte-identical to the pinned run."""
    text = dumps_canonical(result) + module.format_report(result)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_make_topology_names():
    streams = RngStreams(1)
    for name in ("gatech", "mercator", "corpnet"):
        topology = make_topology(name, RngStreams(1), scale=0.1)
        assert topology is not None
    with pytest.raises(ValueError):
        make_topology("nonsense", streams)


def test_scenario_runs_gnutella():
    result = Scenario(seed=5, topology_scale=0.15).run_gnutella(
        scale=0.015, duration=600.0
    )
    assert result.trace_name == "gnutella"
    assert result.stats.n_lookups > 0


def test_fig3_structure():
    result = fig3_failure_rates.run(seed=1, scale=0.02, microsoft_scale=0.002)
    assert set(result["series"]) == {"gnutella", "overnet", "microsoft"}
    for summary in result["summary"].values():
        assert summary["mean"] >= 0.0
    assert_round_trips(result)
    assert_pinned(fig3_failure_rates, result, "bdf05f7aba94881c")
    report = fig3_failure_rates.format_report(result)
    assert "gnutella" in report


def test_topologies_structure():
    result = topologies.run(seed=2, trace_scale=0.012, duration=600.0)
    assert set(result["rows"]) == {"corpnet", "gatech", "mercator"}
    assert_round_trips(result)
    assert_pinned(topologies, result, "a4925b05172b4da4")
    report = topologies.format_report(result)
    assert "paper-RDP" in report


def test_fig4_structure():
    result = fig4_traces.run(seed=10, scale=0.012, microsoft_scale=0.002,
                             duration=900.0)
    assert set(result["traces"]) == {"gnutella", "overnet", "microsoft"}
    assert result["breakdown"]
    assert_round_trips(result)
    assert_pinned(fig4_traces, result, "7ca50dec94a7c4d2")


def test_fig5_structure():
    result = fig5_sessions.run(
        seed=3, n_nodes=25, duration=400.0, session_minutes=(30, 60)
    )
    assert set(result["rows"]) == {"30", "60"}
    assert_round_trips(result)
    assert_pinned(fig5_sessions, result, "2302fea0022b099f")


def test_fig6_structure():
    result = fig6_loss.run(
        seed=4, trace_scale=0.012, duration=500.0, loss_rates=(0.0, 0.05)
    )
    assert set(result["rows"]) == {"0", "0.05"}
    assert_round_trips(result)
    assert_pinned(fig6_loss, result, "c31f5b239df77838")


def test_fig7_structure():
    result = fig7_params.run(
        seed=5, trace_scale=0.012, duration=500.0,
        leaf_sizes=(8, 16), b_values=(2, 4),
    )
    assert set(result["l"]) == {"8", "16"}
    assert set(result["b"]) == {"2", "4"}
    assert_round_trips(result)
    assert_pinned(fig7_params, result, "bc6d6ff0f2504c2d")


def test_faults_structure():
    # Tiny scale: fault windows (600..900) must sit inside the duration so
    # every scenario gets a post-fault reconvergence measurement.
    result = faults.run(seed=9, trace_scale=0.012, duration=1200.0,
                        burst_rates=(0.03,))
    assert set(result) == {"partition", "burst", "gray"}
    for scenario in ("partition", "gray"):
        row = result[scenario]
        assert "reconvergence" in row
        assert row["standing_violations"] >= 0
        assert row["fault_drops"] > 0
    assert set(result["burst"]) == {"uniform-3%", "bursty-3%"}
    assert result["burst"]["bursty-3%"]["fault_drops"] > 0
    assert result["burst"]["uniform-3%"]["fault_drops"] == 0
    assert_round_trips(result)
    assert_pinned(faults, result, "b4040b2d79b93ca9")
    report = faults.format_report(result)
    assert "partition/heal" in report
    assert "bursty vs uniform" in report
    assert "gray-failure mix" in report


def test_burst_sweep_keeps_a_row_per_rate():
    # A whole-percent label gave 1.5% and 2% the same key, so the later run
    # silently replaced the earlier one.
    rows = faults.run_burst_sweep(seed=9, trace_scale=0.012, duration=300.0,
                                  rates=(0.015, 0.02))
    assert list(rows) == ["uniform-1.5%", "bursty-1.5%", "uniform-2%", "bursty-2%"]


def test_attacks_structure():
    result = attacks.run(seed=11, trace_scale=0.012, duration=1200.0,
                         start=300.0, length=300.0,
                         attacks=("spoof",), fractions=(0.25,))
    assert set(result["rows"]) == {"baseline", "spoof-0.25"}
    baseline = result["rows"]["baseline"]
    attacked = result["rows"]["spoof-0.25"]
    assert baseline["adversary"] == {}
    assert attacked["adversary"].get("lookups_dropped", 0) > 0
    for row in result["rows"].values():
        assert 0.0 <= row["consistency"] <= 1.0
    assert_round_trips(result)
    assert_pinned(attacks, result, "7053e9de32183ddd")
    report = attacks.format_report(result)
    assert "attack coverage" in report
    assert "spoof" in report


def test_ablation_structure():
    result = ablation.run(seed=6, trace_scale=0.012, duration=600.0)
    assert set(result["rows"]) == {"neither", "acks-only", "probing-only", "both"}
    assert_round_trips(result)
    assert_pinned(ablation, result, "27eec10e8adb4a35")


def test_selftuning_structure():
    result = selftuning.run(seed=7, trace_scale=0.012, duration=600.0)
    assert set(result["rows"]) == {"0.05", "0.01"}
    assert_round_trips(result)
    assert_pinned(selftuning, result, "0b97dd1ef073fc0c")


def test_fig8_structure():
    result = fig8_squirrel.run(seed=8, n_machines=12, n_days=1,
                               stats_window=3600.0, peak_request_rate=0.005)
    assert result["simulator"]
    assert result["deployment"]
    assert -1.0 <= result["correlation"] <= 1.0
    assert_round_trips(result)
    assert_pinned(fig8_squirrel, result, "7502c109548ceecf")


def test_design_ablations_structure():
    result = design_ablations.run(seed=10, trace_scale=0.012, duration=500.0)
    assert set(result) == {"heartbeats", "tuning", "suppression", "symmetry",
                           "rto", "deferral", "burstiness"}
    assert set(result["suppression"]) == {"0.01/on", "0.01/off", "0.1/on",
                                          "0.1/off"}
    assert len(result["burstiness"]) == 6
    assert_round_trips(result)
    assert_pinned(design_ablations, result, "f34589e50ccee380")


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
def test_format_table_alignment():
    table = format_table(["a", "bb"], [(1, 2.5), ("xx", 3e-7)])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "3.00e-07" in table


def test_format_series_and_downsample():
    series = [(float(i) * 3600, float(i)) for i in range(100)]
    thin = downsample(series, max_points=10)
    assert len(thin) == 10
    rendered = format_series("x", thin)
    assert rendered.startswith("x")
