"""Bench: §5.3 ablation — active probing and per-hop acks."""

import pytest

from benchmarks.conftest import run_figure
from repro.experiments import ablation


def test_probing_and_acks_ablation(benchmark):
    result = run_figure(benchmark, "ablation", ablation.run, ablation.format_report,
                        seed=42, trace_scale=0.05, duration=2400.0)

    rows = result["rows"]
    # Paper: 32% of lookups lost without probes+acks; with acks the loss
    # collapses to ~1e-5.  Shape: catastrophic vs near-zero.
    assert rows["neither"]["loss"] > 0.02
    assert rows["acks-only"]["loss"] < 1e-3
    assert rows["both"]["loss"] < 1e-3
    # Probing alone cannot reach ack-level loss (limited by the probing
    # period floor; paper: "order of a few percent").
    assert rows["probing-only"]["loss"] > rows["both"]["loss"] + 0.01
    # Consistency is never violated in any variant (no link loss here).
    for name, row in rows.items():
        assert row["incorrect"] < 1e-3, name
    # Acks-only pays an RDP penalty vs both (paper: +17% at 0.01 lookups/s).
    # Pinned: it has not held since bac0bb8 (ROADMAP 15); checked last so
    # every other shape above still runs.
    if rows["acks-only"]["rdp"] > rows["both"]["rdp"]:
        pytest.fail("fixed: drop the pin, regenerate")
    pytest.xfail("acks-only RDP <= both since bac0bb8 (ROADMAP 15)")
