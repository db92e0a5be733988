"""Bench: Figure 3 — failure-rate series of the three churn traces."""

from benchmarks.conftest import run_figure
from repro.experiments import fig3_failure_rates as fig3


def test_fig3_failure_rates(benchmark):
    result = run_figure(benchmark, "fig3_failure_rates", fig3.run, fig3.format_report,
                        seed=42, scale=0.08, microsoft_scale=0.008)

    summary = result["summary"]
    # Paper: Gnutella/OverNet fluctuate around 1e-4..3.5e-4 failures/node/s.
    for name in ("gnutella", "overnet"):
        assert 3e-5 < summary[name]["mean"] < 6e-4
    # Microsoft an order of magnitude lower (~1e-5 scale).
    assert summary["microsoft"]["mean"] < summary["gnutella"]["mean"] / 5
    assert summary["microsoft"]["mean"] < 3e-5
    # Daily variation: the peak clearly exceeds the mean.
    for name in ("gnutella", "overnet"):
        assert summary[name]["peak"] > 1.3 * summary[name]["mean"]
