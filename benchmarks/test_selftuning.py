"""Bench: §5.3 self-tuning — achieved raw loss vs target and its cost."""

from benchmarks.conftest import run_figure
from repro.experiments import selftuning


def test_selftuning_targets(benchmark):
    result = run_figure(benchmark, "selftuning", selftuning.run,
                        selftuning.format_report,
                        seed=42, trace_scale=0.05, duration=3000.0)

    rows = result["rows"]
    hi, lo = rows["0.05"], rows["0.01"]
    # A tighter target yields a lower measured loss rate...
    assert lo["measured_loss"] <= hi["measured_loss"]
    # ...at a higher control-traffic cost (paper: 2.6x going 5% -> 1%).
    assert lo["control"] > hi["control"]
    # The measured raw loss stays within an order of magnitude of the
    # target (paper: 5.3% @ 5%, 1.2% @ 1%).
    assert hi["measured_loss"] < 0.25
