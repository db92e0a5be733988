"""Tests for Poisson churn trace generation."""

import random
import statistics

import pytest

from repro.traces.events import ARRIVAL
from repro.traces.synthetic import generate_poisson_trace


def make(n=200, session=600.0, duration=3600.0, seed=1):
    return generate_poisson_trace(random.Random(seed), n, session, duration)


def test_events_sorted_by_time():
    trace = make()
    times = [e.time for e in trace.events]
    assert times == sorted(times)


def test_initial_population_at_time_zero():
    trace = make(n=100)
    assert len(trace.initial_nodes()) == 100


def test_every_failure_has_prior_arrival():
    trace = make()
    arrived = set()
    for event in trace.events:
        if event.kind == ARRIVAL:
            arrived.add(event.node)
        else:
            assert event.node in arrived


def test_no_events_beyond_duration():
    trace = make(duration=1000.0)
    assert all(e.time <= 1000.0 for e in trace.events)


def test_mean_session_time_matches_parameter():
    trace = make(n=500, session=300.0, duration=6000.0, seed=3)
    sessions = trace.session_times()
    assert len(sessions) > 200
    # Completed sessions are biased short (censoring), so compare loosely.
    assert statistics.mean(sessions) == pytest.approx(300.0, rel=0.35)


def test_arrival_rate_in_steady_state():
    n, session, duration = 300, 600.0, 6000.0
    trace = make(n=n, session=session, duration=duration, seed=5)
    late_arrivals = sum(
        1 for e in trace.events if e.kind == ARRIVAL and e.time > 0
    )
    expected = n / session * duration
    assert late_arrivals == pytest.approx(expected, rel=0.15)


def test_population_stays_near_target():
    from repro.traces.analysis import active_count_series

    trace = make(n=200, session=600.0, duration=3600.0, seed=7)
    _, counts = active_count_series(trace, window=600.0)
    for count in counts:
        assert count == pytest.approx(200, rel=0.25)


def test_invalid_parameters_rejected():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        generate_poisson_trace(rng, 0, 600.0, 100.0)
    with pytest.raises(ValueError):
        generate_poisson_trace(rng, 10, -1.0, 100.0)
    with pytest.raises(ValueError):
        generate_poisson_trace(rng, 10, 600.0, 0.0)


def test_deterministic_for_same_seed():
    a = make(seed=11)
    b = make(seed=11)
    assert [(e.time, e.node, e.kind) for e in a] == [
        (e.time, e.node, e.kind) for e in b
    ]
