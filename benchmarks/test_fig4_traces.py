"""Bench: Figure 4 — RDP and control traffic over time per trace."""

from benchmarks.conftest import run_figure
from repro.experiments import fig4_traces as fig4
from repro.pastry.messages import CAT_DISTANCE, CAT_HEARTBEAT, CAT_LEAFSET


def test_fig4_traces(benchmark):
    result = run_figure(benchmark, "fig4_traces", fig4.run, fig4.format_report,
                        seed=42, scale=0.05, microsoft_scale=0.006, duration=3 * 3600.0)

    traces = result["traces"]
    # Dependability on every trace.
    for name, t in traces.items():
        assert t["loss"] < 1e-3, name
        assert t["incorrect"] < 1e-3, name
    # Paper: OverNet and Gnutella have similar control traffic; Microsoft is
    # much lower (roughly 3x in the paper) because churn is ~10x lower.
    gnutella, overnet = traces["gnutella"], traces["overnet"]
    microsoft = traces["microsoft"]
    assert 0.4 < gnutella["control"] / overnet["control"] < 2.5
    assert microsoft["control"] < gnutella["control"] / 1.8
    # Microsoft RDP no worse than the open traces (paper: lower).
    assert microsoft["rdp"] < max(gnutella["rdp"], overnet["rdp"]) * 1.2
    # RDP stays in the "delay stretch below ~two" regime on the open traces.
    assert gnutella["rdp"] < 3.5
    # Breakdown: distance probes and leaf-set traffic dominate, as in the
    # paper's right-hand panel.
    breakdown = result["breakdown"]
    means = {
        cat: (sum(v for _t, v in series) / len(series) if series else 0.0)
        for cat, series in breakdown.items()
    }
    total = sum(means.values())
    leafset_side = means[CAT_LEAFSET] + means[CAT_HEARTBEAT]
    assert means[CAT_DISTANCE] + leafset_side > 0.5 * total
