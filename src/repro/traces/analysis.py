"""Trace analytics: the windowed statistics behind the paper's Figure 3.

Figure 3 plots "node failures per node per second" averaged over 10-minute
windows (Gnutella, OverNet) or 1-hour windows (Microsoft).  The same
windowing is reused by the experiment harness for RDP and control-traffic
time series.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.traces.events import ARRIVAL, FAILURE, ChurnTrace


def active_count_series(
    trace: ChurnTrace, window: float
) -> Tuple[List[float], List[float]]:
    """Average number of active nodes per window.

    Returns ``(window_centres, averages)``.  The average is the
    time-weighted mean of the active-node step function over each window.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    n_windows = max(1, int(trace.duration // window))
    area = [0.0] * n_windows  # node-seconds per window
    active = 0
    prev_time = 0.0

    def accumulate(until: float, count: int) -> None:
        """Add ``count`` nodes active over [prev_time, until) to the areas."""
        t = prev_time
        while t < until:
            idx = min(int(t // window), n_windows - 1)
            window_end = (idx + 1) * window
            span = min(until, window_end) - t
            area[idx] += count * span
            t += span

    for event in trace.events:
        time = min(event.time, trace.duration)
        if time > prev_time:
            accumulate(time, active)
            prev_time = time
        if event.kind == ARRIVAL:
            active += 1
        else:
            active -= 1
    if prev_time < trace.duration:
        accumulate(trace.duration, active)

    centres = [(i + 0.5) * window for i in range(n_windows)]
    return centres, [a / window for a in area]


def failure_rate_series(
    trace: ChurnTrace, window: float
) -> Tuple[List[float], List[float]]:
    """Node failures per node per second, averaged per window (Fig 3)."""
    centres, avg_active = active_count_series(trace, window)
    n_windows = len(centres)
    failures = [0] * n_windows
    for event in trace.events:
        if event.kind == FAILURE and event.time < trace.duration:
            failures[min(int(event.time // window), n_windows - 1)] += 1
    rates = [
        failures[i] / (avg_active[i] * window) if avg_active[i] > 0 else 0.0
        for i in range(n_windows)
    ]
    return centres, rates
