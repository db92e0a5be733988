"""Bench: Figure 8 — Squirrel web-cache traffic validation."""

from benchmarks.conftest import run_figure
from repro.experiments import fig8_squirrel as fig8


def test_fig8_squirrel_validation(benchmark):
    result = run_figure(benchmark, "fig8_squirrel", fig8.run, fig8.format_report,
                        seed=42, n_machines=52, n_days=6, peak_request_rate=0.012)

    # The two independent runs of the same workload produce closely matching
    # traffic series (the paper's simulator-vs-deployment agreement).
    assert result["correlation"] > 0.9
    # The diurnal/weekend pattern is visible: busiest window clearly above
    # the quietest.
    values = [v for _t, v in result["simulator"]]
    assert max(values) > 1.5 * min(values)
    # The cache works: repeated URLs are served without origin fetches.
    summary = result["simulator_summary"]
    assert summary["origin_fetches"] < summary["requests"]
    assert summary["local_hits"] + summary["remote_hits"] > 0
    # Dependable routing under the deployment workload.
    assert summary["loss"] < 1e-2
    assert summary["incorrect"] < 1e-2
