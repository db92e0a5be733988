"""Smoke tests for the experiment modules (tiny scales).

The benchmarks run each experiment at reporting scale; these tests verify
that every experiment module runs end-to-end, returns the documented
structure (a JSON-round-trippable dict — the sweep-harness contract), and
formats a report.  Each also pins the first 16 hex digits of the SHA-256 of
its canonical result plus its report, so a refactor of the experiment
scaffolding cannot change a number, a key or a byte of a report unseen.
``tests/test_determinism_regressions.py`` re-runs the same pinned runs in
fresh interpreters with every ambient source poisoned, under two hash seeds.
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

#: module -> (its tiny ``run()`` kwargs, the digest of that run)
PINNED = {
    fig3_failure_rates: (dict(seed=1, scale=0.02, microsoft_scale=0.002),
                         "bdf05f7aba94881c"),
    topologies: (dict(seed=2, trace_scale=0.012, duration=600.0),
                 "a4925b05172b4da4"),
    fig4_traces: (dict(seed=10, scale=0.012, microsoft_scale=0.002,
                       duration=900.0), "7ca50dec94a7c4d2"),
    fig5_sessions: (dict(seed=3, n_nodes=25, duration=400.0,
                         session_minutes=(30, 60)), "2302fea0022b099f"),
    fig6_loss: (dict(seed=4, trace_scale=0.012, duration=500.0,
                     loss_rates=(0.0, 0.05)), "c31f5b239df77838"),
    fig7_params: (dict(seed=5, trace_scale=0.012, duration=500.0,
                       leaf_sizes=(8, 16), b_values=(2, 4)), "bc6d6ff0f2504c2d"),
    # Tiny scale: fault windows (600..900) must sit inside the duration so
    # every scenario gets a post-fault reconvergence measurement.
    faults: (dict(seed=9, trace_scale=0.012, duration=1200.0,
                  burst_rates=(0.03,)), "b4040b2d79b93ca9"),
    attacks: (dict(seed=11, trace_scale=0.012, duration=1200.0, start=300.0,
                   length=300.0, attacks=("spoof",), fractions=(0.25,)),
              "7053e9de32183ddd"),
    ablation: (dict(seed=6, trace_scale=0.012, duration=600.0),
               "27eec10e8adb4a35"),
    selftuning: (dict(seed=7, trace_scale=0.012, duration=600.0),
                 "0b97dd1ef073fc0c"),
    fig8_squirrel: (dict(seed=8, n_machines=12, n_days=1, stats_window=3600.0,
                         peak_request_rate=0.005), "7502c109548ceecf"),
    design_ablations: (dict(seed=10, trace_scale=0.012, duration=500.0),
                       "f34589e50ccee380"),
}


def digest(module, result):
    """The first 16 hex digits of the SHA-256 of the result and its report."""
    text = dumps_canonical(result) + module.format_report(result)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pinned(module):
    """Run ``module``'s pinned configuration.  The result survives a JSON
    round-trip unchanged and, with its report, matches the pinned digest."""
    kwargs, pin = PINNED[module]
    result = module.run(**kwargs)
    assert json.loads(json.dumps(to_jsonable(result))) == result
    assert digest(module, result) == pin
    return result


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
    result = run_pinned(fig3_failure_rates)
    assert set(result["series"]) == {"gnutella", "overnet", "microsoft"}
    for summary in result["summary"].values():
        assert summary["mean"] >= 0.0
    report = fig3_failure_rates.format_report(result)
    assert "gnutella" in report


def test_topologies_structure():
    result = run_pinned(topologies)
    assert set(result["rows"]) == {"corpnet", "gatech", "mercator"}
    report = topologies.format_report(result)
    assert "paper-RDP" in report


def test_fig4_structure():
    result = run_pinned(fig4_traces)
    assert set(result["traces"]) == {"gnutella", "overnet", "microsoft"}
    assert result["breakdown"]


def test_fig5_structure():
    result = run_pinned(fig5_sessions)
    assert set(result["rows"]) == {"30", "60"}


def test_fig6_structure():
    result = run_pinned(fig6_loss)
    assert set(result["rows"]) == {"0", "0.05"}


def test_fig7_structure():
    result = run_pinned(fig7_params)
    assert set(result["l"]) == {"8", "16"}
    assert set(result["b"]) == {"2", "4"}


def test_faults_structure():
    result = run_pinned(faults)
    assert set(result) == {"partition", "burst", "gray"}
    for scenario in ("partition", "gray"):
        row = result[scenario]
        assert "reconvergence" in row
        assert row["standing_violations"] >= 0
        assert row["fault_drops"] > 0
    assert set(result["burst"]) == {"uniform-3%", "bursty-3%"}
    assert result["burst"]["bursty-3%"]["fault_drops"] > 0
    assert result["burst"]["uniform-3%"]["fault_drops"] == 0
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
    result = run_pinned(attacks)
    assert set(result["rows"]) == {"baseline", "spoof-0.25"}
    baseline = result["rows"]["baseline"]
    attacked = result["rows"]["spoof-0.25"]
    assert baseline["adversary"] == {}
    assert attacked["adversary"].get("lookups_dropped", 0) > 0
    for row in result["rows"].values():
        assert 0.0 <= row["consistency"] <= 1.0
    report = attacks.format_report(result)
    assert "attack coverage" in report
    assert "spoof" in report


def test_ablation_structure():
    result = run_pinned(ablation)
    assert set(result["rows"]) == {"neither", "acks-only", "probing-only", "both"}


def test_selftuning_structure():
    result = run_pinned(selftuning)
    assert set(result["rows"]) == {"0.05", "0.01"}


def test_fig8_structure():
    result = run_pinned(fig8_squirrel)
    assert result["simulator"]
    assert result["deployment"]
    assert -1.0 <= result["correlation"] <= 1.0


def test_design_ablations_structure():
    result = run_pinned(design_ablations)
    assert set(result) == {"heartbeats", "tuning", "suppression", "symmetry",
                           "rto", "deferral", "burstiness"}
    assert set(result["suppression"]) == {"0.01/on", "0.01/off", "0.1/on",
                                          "0.1/off"}
    assert len(result["burstiness"]) == 6


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
    thin = downsample(series)
    assert len(thin) == 24
    rendered = format_series("x", thin)
    assert rendered.startswith("x")
