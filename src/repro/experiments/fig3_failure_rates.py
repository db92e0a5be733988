"""Figure 3: node failure rates of the Gnutella, OverNet and Microsoft traces.

The paper plots failures per node per second averaged over 10-minute windows
(1 hour for Microsoft).  Expected shape: Gnutella and OverNet fluctuate
around 1e-4..3.5e-4 with clear daily patterns; Microsoft stays an order of
magnitude lower (~1e-5) with weekly structure.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.experiments.reporting import downsample, format_series, render
from repro.experiments.resultio import as_pairs
from repro.sim.rng import RngStreams
from repro.traces.analysis import failure_rate_series
from repro.traces.realworld import TRACE_MODELS, generate_real_world_trace

COLUMNS = (("mean rate", "mean"), ("peak rate", "peak"), ("events", "n_events"),
           ("duration", lambda summary: f"{summary['duration_h']:.0f}h"))


def run(seed: int = 42, scale: float = 0.1,
        microsoft_scale: float = 0.01) -> Dict:
    """Generate the three traces and their failure-rate series."""
    streams = RngStreams(seed)
    result = {"series": {}, "summary": {}}
    for name, model in TRACE_MODELS.items():
        trace_scale = microsoft_scale if name == "microsoft" else scale
        trace = generate_real_world_trace(
            streams.stream(f"trace-{name}"), model, scale=trace_scale
        )
        times, rates = failure_rate_series(trace, model.analysis_window)
        series = as_pairs(zip(times, rates))
        positive = [r for r in rates if r > 0]
        result["series"][name] = series
        result["summary"][name] = {
            "mean": statistics.mean(positive) if positive else 0.0,
            "peak": max(rates) if rates else 0.0,
            "n_events": len(trace),
            "duration_h": trace.duration / 3600.0,
        }
    return result


def format_report(result: Dict) -> str:
    parts = [render("Figure 3 — node failures per node per second",
                    [(None, "trace", COLUMNS, result["summary"])])]
    for name, series in result["series"].items():
        parts.append(format_series(f"\n{name} failure rate", downsample(series)))
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
