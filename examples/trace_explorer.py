#!/usr/bin/env python
"""Explore the churn traces driving the paper's fault injection (Fig 3).

Generates the three real-world trace reconstructions, prints their headline
statistics (session times, population envelope, failure rates) and an ASCII
failure-rate timeline.

Run:  python examples/trace_explorer.py
"""

import statistics

from repro.sim.rng import RngStreams
from repro.traces import (
    GNUTELLA,
    MICROSOFT,
    OVERNET,
    active_count_series,
    failure_rate_series,
    generate_real_world_trace,
)


def explore(model, scale):
    streams = RngStreams(99)
    trace = generate_real_world_trace(
        streams.stream(f"trace-{model.name}"), model, scale=scale
    )
    sessions = trace.session_times()
    _, counts = active_count_series(trace, model.analysis_window)
    times, rates = failure_rate_series(trace, model.analysis_window)

    print(f"\n=== {model.name} (scale {scale}) ===")
    print(f"events: {len(trace)}, duration {trace.duration / 3600:.0f} h")
    print(f"session mean {statistics.mean(sessions) / 60:.0f} min "
          f"(model: {model.mean_session / 60:.0f}), "
          f"median {statistics.median(sessions) / 60:.0f} min "
          f"(model: {model.median_session / 60:.0f})")
    print(f"active population {min(counts):.0f}..{max(counts):.0f}")
    peak = max(rates) or 1.0
    print("failure rate timeline (each row = one analysis window bucket):")
    step = max(1, len(rates) // 18)
    for i in range(0, len(rates), step):
        bar = "#" * int(40 * rates[i] / peak)
        print(f"  {times[i] / 3600:7.1f}h {rates[i]:.2e} {bar}")


def main() -> None:
    explore(GNUTELLA, scale=0.1)
    explore(OVERNET, scale=0.3)
    explore(MICROSOFT, scale=0.01)


if __name__ == "__main__":
    main()
