"""Tests for metrics collection (paper §5.2 definitions)."""

import pytest

from repro.metrics.cdf import cdf_points, percentile
from repro.metrics.collector import ActiveIntegrator, StatsCollector
from repro.pastry import messages as m
from repro.pastry.nodeid import NodeDescriptor


def desc(i):
    return NodeDescriptor(id=i, addr=i)


def lookup(msg_id, key=1, src=1, t=0.0):
    return m.Lookup(msg_id=msg_id, key=key, source=desc(src), sent_at=t)


# ----------------------------------------------------------------------
# ActiveIntegrator
# ----------------------------------------------------------------------
def test_integrator_constant_count():
    integ = ActiveIntegrator(10.0)
    integ.count = 5
    integ.advance(20.0)
    assert integ.node_seconds[0] == 50.0
    assert integ.node_seconds[1] == 50.0
    assert integ.total_node_seconds == 100.0


def test_integrator_change_splits_windows():
    integ = ActiveIntegrator(10.0)
    integ.change(0.0, 2)
    integ.change(5.0, 2)  # 4 active from t=5
    integ.advance(10.0)
    assert integ.node_seconds[0] == 2 * 5 + 4 * 5


def test_integrator_negative_count_rejected():
    integ = ActiveIntegrator(10.0)
    with pytest.raises(ValueError):
        integ.change(1.0, -1)


# ----------------------------------------------------------------------
# StatsCollector
# ----------------------------------------------------------------------
def test_loss_rate_counts_undelivered_settled():
    stats = StatsCollector(window=10.0)
    for i in range(10):
        stats.on_lookup_issued(lookup(i), float(i))
    # deliver first 8
    for i in range(8):
        stats.on_lookup_delivered(lookup(i), float(i) + 1, True, 0.5)
    stats.finish(1000.0)
    assert stats.loss_rate(grace=60.0) == pytest.approx(0.2)


def test_grace_period_excludes_recent():
    stats = StatsCollector(window=10.0)
    stats.on_lookup_issued(lookup(1), 995.0)  # within grace of end
    stats.finish(1000.0)
    assert stats.loss_rate(grace=60.0) == 0.0


def test_incorrect_delivery_rate():
    stats = StatsCollector(window=10.0)
    for i in range(4):
        stats.on_lookup_issued(lookup(i), 0.0)
        stats.on_lookup_delivered(lookup(i), 1.0, i != 0, 0.5)
    stats.finish(1000.0)
    assert stats.incorrect_delivery_rate() == pytest.approx(0.25)


def test_duplicate_delivery_ignored():
    stats = StatsCollector(window=10.0)
    stats.on_lookup_issued(lookup(1), 0.0)
    stats.on_lookup_delivered(lookup(1), 1.0, True, 0.5)
    stats.on_lookup_delivered(lookup(1), 2.0, False, 0.5)
    stats.finish(100.0)
    assert stats.incorrect_delivery_rate() == 0.0


def test_rdp_mean():
    stats = StatsCollector(window=10.0)
    stats.on_lookup_issued(lookup(1), 0.0)
    stats.on_lookup_delivered(lookup(1), 2.0, True, 1.0)  # RDP 2
    stats.on_lookup_issued(lookup(2), 0.0)
    stats.on_lookup_delivered(lookup(2), 4.0, True, 1.0)  # RDP 4
    stats.finish(100.0)
    assert stats.mean_rdp() == pytest.approx(3.0)


def test_rdp_skips_zero_network_delay():
    stats = StatsCollector(window=10.0)
    stats.on_lookup_issued(lookup(1), 0.0)
    stats.on_lookup_delivered(lookup(1), 2.0, True, None)
    stats.finish(100.0)
    assert stats.mean_rdp() == 0.0  # no samples


def test_control_traffic_rate_and_breakdown():
    stats = StatsCollector(window=10.0)
    stats.active.count = 2
    stats.on_send(m.Heartbeat(), 1, 2, 1.0)
    stats.on_send(m.RtProbe(), 1, 2, 2.0)
    stats.on_send(lookup(9), 1, 2, 3.0)  # lookups excluded from control
    stats.finish(10.0)
    assert stats.control_messages_total() == 2
    assert stats.control_traffic_rate() == pytest.approx(2 / 20.0)
    assert stats.traffic_series()[0][1] == pytest.approx(2 / 20.0)
    assert stats.traffic_series((m.CAT_HEARTBEAT,))[0][1] == pytest.approx(1 / 20.0)
    assert stats.traffic_series((m.CAT_RT_PROBE,))[0][1] == pytest.approx(1 / 20.0)


def test_total_traffic_includes_lookups():
    stats = StatsCollector(window=10.0)
    stats.active.count = 1
    stats.on_send(m.Heartbeat(), 1, 2, 1.0)
    stats.on_send(lookup(9), 1, 2, 3.0)
    stats.finish(10.0)
    series = stats.traffic_series(m.CONTROL_CATEGORIES + (m.CAT_LOOKUP,))
    assert series[0][1] == pytest.approx(2 / 10.0)


def test_join_latency_collection():
    stats = StatsCollector()
    stats.on_join(2.5)
    stats.on_join(3.5)
    assert stats.join_latencies == [2.5, 3.5]


def test_mean_hops():
    stats = StatsCollector()
    msg = lookup(1)
    msg.hops = 4
    stats.on_lookup_issued(msg, 0.0)
    stats.on_lookup_delivered(msg, 1.0, True, 0.5)
    stats.finish(100.0)
    assert stats.mean_hops() == 4.0


# ----------------------------------------------------------------------
# CDF helpers
# ----------------------------------------------------------------------
def test_cdf_points():
    points = cdf_points([3.0, 1.0, 2.0])
    assert points == [[1.0, 1 / 3], [2.0, 2 / 3], [3.0, 1.0]]
    assert cdf_points([]) == []


def test_percentile():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 1.5)
