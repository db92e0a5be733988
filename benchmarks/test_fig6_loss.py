"""Bench: Figure 6 — network loss-rate sweep."""

from benchmarks.conftest import run_figure
from repro.experiments import fig6_loss as fig6


def test_fig6_loss_sweep(benchmark):
    result = run_figure(benchmark, "fig6_loss", fig6.run, fig6.format_report,
                        seed=42, trace_scale=0.05, duration=2400.0,
                        loss_rates=(0.0, 0.01, 0.02, 0.05))

    rows = result["rows"]
    # Per-hop acks keep lookup losses tiny at every network loss rate
    # (paper: 1.5e-5 .. 3.3e-5).
    for loss_rate, row in rows.items():
        assert row["loss"] < 2e-3, loss_rate
    # No inconsistent deliveries without link loss; only a small probability
    # at high loss rates (paper: 0 at <=1%, 1.6e-5 at 5%).
    assert rows["0"]["incorrect"] == 0.0
    assert rows["0.05"]["incorrect"] < 5e-3
    # Control traffic increases with the loss rate (extra probes/retries).
    assert rows["0.05"]["control"] >= rows["0"]["control"]
    # RDP degrades gracefully, not catastrophically.
    assert rows["0.05"]["rdp"] < 4 * rows["0"]["rdp"]
