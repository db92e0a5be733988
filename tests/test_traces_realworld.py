"""Tests for the Gnutella / OverNet / Microsoft trace reconstructions."""

import math
import random
import statistics

import pytest

from repro.traces.analysis import active_count_series, failure_rate_series
from repro.traces.realworld import (
    DAY,
    GNUTELLA,
    HOUR,
    MICROSOFT,
    OVERNET,
    generate_real_world_trace,
)


def test_model_parameters_match_paper():
    assert GNUTELLA.duration == 60 * HOUR
    assert GNUTELLA.mean_session == pytest.approx(2.3 * HOUR)
    assert GNUTELLA.median_session == pytest.approx(1.0 * HOUR)
    assert OVERNET.duration == 7 * DAY
    assert OVERNET.mean_session == pytest.approx(134 * 60.0)
    assert OVERNET.median_session == pytest.approx(79 * 60.0)
    assert MICROSOFT.duration == 37 * DAY
    assert MICROSOFT.mean_session == pytest.approx(37.7 * HOUR)
    # §5.1: the published average active populations
    assert (GNUTELLA.avg_active, OVERNET.avg_active, MICROSOFT.avg_active) == (
        2000, 455, 15150)


def test_lognormal_parameters_reproduce_mean_and_median():
    for model in (GNUTELLA, OVERNET, MICROSOFT):
        median = math.exp(model.mu)
        mean = math.exp(model.mu + model.sigma**2 / 2)
        assert median == pytest.approx(model.median_session, rel=1e-9)
        assert mean == pytest.approx(model.mean_session, rel=1e-9)


def test_scaled_gnutella_session_statistics():
    trace = generate_real_world_trace(
        random.Random(1), GNUTELLA, scale=0.1
    )
    sessions = trace.session_times()
    assert len(sessions) > 500
    # Censoring removes the heavy tail, so compare the median (robust).
    assert statistics.median(sessions) == pytest.approx(
        GNUTELLA.median_session, rel=0.2
    )


def test_population_envelope_gnutella():
    trace = generate_real_world_trace(random.Random(2), GNUTELLA, scale=0.1)
    _, counts = active_count_series(trace, window=HOUR)
    scaled_avg = GNUTELLA.avg_active * 0.1
    # Paper envelope 1300..2700 around 2000 -> 0.65x..1.35x of the average.
    for count in counts[2:]:  # first windows still ramping to steady state
        assert 0.5 * scaled_avg < count < 1.6 * scaled_avg


def test_failure_rate_order_of_magnitude():
    # Paper Fig 3: Gnutella peaks ~3.5e-4 failures/node/s, Microsoft ~1.5e-5.
    gnutella = generate_real_world_trace(random.Random(3), GNUTELLA, scale=0.05)
    _, g_rates = failure_rate_series(gnutella, GNUTELLA.analysis_window)
    g_mean = statistics.mean(r for r in g_rates if r > 0)
    assert 5e-5 < g_mean < 5e-4

    microsoft = generate_real_world_trace(
        random.Random(3), MICROSOFT, scale=0.01, duration=7 * DAY
    )
    _, m_rates = failure_rate_series(microsoft, MICROSOFT.analysis_window)
    m_mean = statistics.mean(r for r in m_rates if r > 0)
    assert m_mean < g_mean / 5  # order-of-magnitude gap, as in the paper


def test_diurnal_pattern_visible_in_arrival_counts():
    trace = generate_real_world_trace(random.Random(4), OVERNET, scale=1.0)
    hour_counts = [0] * 24
    for event in trace.events:
        if event.kind == "arrival" and event.time > 0:
            hour_counts[int(event.time % DAY // HOUR)] += 1
    assert max(hour_counts) > 1.4 * max(1, min(hour_counts))


def test_duration_override_truncates():
    trace = generate_real_world_trace(
        random.Random(5), GNUTELLA, scale=0.05, duration=6 * HOUR
    )
    assert trace.duration == 6 * HOUR
    assert all(e.time <= 6 * HOUR for e in trace.events)


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        generate_real_world_trace(random.Random(0), GNUTELLA, scale=0.0)


def test_deterministic():
    a = generate_real_world_trace(random.Random(9), OVERNET, scale=0.1)
    b = generate_real_world_trace(random.Random(9), OVERNET, scale=0.1)
    assert len(a) == len(b)
    assert [(e.time, e.kind) for e in a.events[:50]] == [
        (e.time, e.kind) for e in b.events[:50]
    ]
