"""Tests for windowed trace analytics (paper Figure 3 machinery)."""

import pytest

from repro.traces.analysis import (
    active_count_series,
    failure_rate_series,
)
from repro.traces.events import ARRIVAL, FAILURE, ChurnTrace, TraceEvent


def trace_from(events, duration):
    return ChurnTrace(name="t", events=events, duration=duration)


def test_active_count_constant_population():
    events = [TraceEvent(0.0, i, ARRIVAL) for i in range(10)]
    trace = trace_from(events, 100.0)
    centres, counts = active_count_series(trace, window=10.0)
    assert len(centres) == 10
    assert all(c == 10.0 for c in counts)


def test_active_count_step_change():
    events = [
        TraceEvent(0.0, 0, ARRIVAL),
        TraceEvent(50.0, 1, ARRIVAL),
    ]
    trace = trace_from(events, 100.0)
    _, counts = active_count_series(trace, window=50.0)
    assert counts == [1.0, 2.0]


def test_active_count_partial_window_weighting():
    # One node active only for the second half of a single window.
    events = [TraceEvent(5.0, 0, ARRIVAL)]
    trace = trace_from(events, 10.0)
    _, counts = active_count_series(trace, window=10.0)
    assert counts == [0.5]


def test_failure_rate_simple():
    # 10 nodes, one failure at t=5 in a 10s window: 1/(10*10) per node-sec.
    events = [TraceEvent(0.0, i, ARRIVAL) for i in range(10)]
    events.append(TraceEvent(5.0, 0, FAILURE))
    trace = trace_from(events, 10.0)
    _, rates = failure_rate_series(trace, window=10.0)
    # average active ~9.5 over the window
    assert rates[0] == pytest.approx(1 / (9.5 * 10.0))


def test_failure_rate_empty_window_is_zero():
    events = [TraceEvent(0.0, 0, ARRIVAL)]
    trace = trace_from(events, 100.0)
    _, rates = failure_rate_series(trace, window=10.0)
    assert all(r == 0.0 for r in rates)


def test_mean_failure_rate_matches_expectation():
    import random

    from repro.traces.synthetic import generate_poisson_trace

    trace = generate_poisson_trace(random.Random(1), 300, 600.0, 3600.0)
    _, (mu,) = failure_rate_series(trace, trace.duration)  # one trace-wide window
    assert mu == pytest.approx(1 / 600.0, rel=0.15)


def test_invalid_window_rejected():
    trace = trace_from([TraceEvent(0.0, 0, ARRIVAL)], 10.0)
    with pytest.raises(ValueError):
        active_count_series(trace, window=0.0)


def test_events_after_duration_ignored():
    events = [
        TraceEvent(0.0, 0, ARRIVAL),
        TraceEvent(500.0, 0, FAILURE),  # beyond duration
    ]
    trace = trace_from(events, 100.0)
    _, rates = failure_rate_series(trace, window=100.0)
    assert rates == [0.0]
