"""Bench: ablations of individual design choices (DESIGN.md §5)."""

from benchmarks.conftest import run_figure
from repro.experiments import design_ablations


def test_design_choice_ablations(benchmark):
    result = run_figure(benchmark, "design_ablations", design_ablations.run,
                        design_ablations.format_report,
                        seed=42, trace_scale=0.035, duration=1500.0)

    # 1. Single left-neighbour heartbeat is far cheaper than all-members
    #    (with l=32 the paper's optimization saves ~l/2x heartbeat traffic).
    hb = result["heartbeats"]
    assert hb["all-members"]["heartbeat_rate"] > 5 * hb["left-neighbour"]["heartbeat_rate"]
    assert hb["left-neighbour"]["loss"] < 5e-3  # no dependability cost

    # 2. Self-tuning uses less probe traffic than a fixed short period while
    #    keeping lookups dependable.
    tuning = result["tuning"]
    assert tuning["self-tuned"]["rt_probe_rate"] < tuning["fixed-30s"]["rt_probe_rate"]
    assert tuning["self-tuned"]["control"] < tuning["fixed-30s"]["control"]
    assert tuning["self-tuned"]["loss"] < 5e-3
    # Shorter probing period buys lower delay (the Lr-vs-delay trade).
    assert tuning["fixed-30s"]["rdp"] <= tuning["self-tuned"]["rdp"]

    # 3. Suppression reduces failure-detection traffic, more so when there is
    #    more application traffic to piggyback on.
    sup = result["suppression"]
    assert sup["0.01/on"]["probe_rate"] < sup["0.01/off"]["probe_rate"]
    assert sup["0.1/on"]["probe_rate"] < sup["0.1/off"]["probe_rate"]
    saving_low = 1 - sup["0.01/on"]["probe_rate"] / sup["0.01/off"]["probe_rate"]
    saving_high = 1 - sup["0.1/on"]["probe_rate"] / sup["0.1/off"]["probe_rate"]
    assert saving_high > saving_low

    # 4. Symmetric distance reports avoid some probe traffic.
    sym = result["symmetry"]
    assert sym["symmetric"]["distance_rate"] <= sym["independent"]["distance_rate"]

    # 5. Aggressive timers beat TCP-conservative ones on delay.
    rto = result["rto"]
    assert rto["aggressive"]["rdp"] < rto["tcp-conservative"]["rdp"]

    # 6. Delivery deferral trades a little delay for consistency under loss.
    deferral = result["deferral"]
    assert deferral["on"]["incorrect"] <= deferral["off"]["incorrect"]
    assert deferral["off"]["incorrect"] > 0  # the problem it solves is real
