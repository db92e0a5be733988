"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, handle.cancel)
    sim.run()
    assert fired == []
    assert not handle.active


def test_run_until_stops_at_horizon_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advances to the horizon
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=10)
    assert sim.events_executed == 10


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    sim.schedule(0.0, lambda: times.append(sim.now))  # between runs too
    sim.run()
    assert times == [2.0, 2.0]


def test_cancel_releases_references():
    sim = Simulator()
    big = ["payload"]
    handle = sim.schedule(1.0, big.append, big)
    handle.cancel()
    assert handle.args == ()
    sim.run()
    assert big == ["payload"]


def test_pending_events_counts_queue():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    handles[0].cancel()
    assert sim.pending_events == 4  # lazy cancellation keeps it queued
    sim.run()
    assert sim.pending_events == 0
