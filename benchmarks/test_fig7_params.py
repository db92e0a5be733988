"""Bench: Figure 7 — leaf-set size (l) and digit size (b) sweeps."""

import pytest

from benchmarks.conftest import run_figure
from repro.experiments import fig7_params as fig7


def test_fig7_parameter_sweeps(benchmark):
    result = run_figure(benchmark, "fig7_params", fig7.run, fig7.format_report,
                        seed=42, trace_scale=0.05, duration=1800.0,
                        leaf_sizes=(8, 16, 32, 64), b_values=(1, 2, 3, 4))

    l_rows, b_rows = result["l"], result["b"]
    # Larger leaf sets shorten routes and cut RDP (paper Fig 7 centre).
    assert l_rows["64"]["rdp"] < l_rows["8"]["rdp"]
    assert l_rows["64"]["hops"] < l_rows["8"]["hops"]
    # The single-heartbeat optimization: heartbeat traffic is independent of
    # the leaf-set size (paper: +7% control going from l=16 to l=32).
    assert l_rows["64"]["heartbeat_traffic"] < 2 * l_rows["8"]["heartbeat_traffic"]
    # Hop count grows as b decreases.
    assert b_rows["1"]["hops"] > b_rows["4"]["hops"]
    # Control traffic moves far less than proportionally with the 8x change
    # in routing-table shape (paper: only ~0.05 msg/s/node; at our scale the
    # delta is noisier but stays a fraction of the total).
    delta = abs(b_rows["1"]["control"] - b_rows["4"]["control"])
    total = max(b_rows["1"]["control"], b_rows["4"]["control"])
    assert delta < 0.6 * total
    # Dependability unaffected by the parameter choices.
    for rows in (l_rows, b_rows):
        for key, row in rows.items():
            assert row["loss"] < 5e-3, key
    # RDP rises steeply as b decreases (paper Fig 7 right: ~3.0 at b=1 vs
    # ~1.8 at b=4) because hop count grows.  Pinned: it has not held since
    # bac0bb8 (ROADMAP 15); checked last so every other shape above runs.
    if b_rows["1"]["rdp"] > b_rows["4"]["rdp"]:
        pytest.fail("fixed: drop the pin, regenerate")
    pytest.xfail("RDP at b=1 <= RDP at b=4 since bac0bb8 (ROADMAP 15)")
