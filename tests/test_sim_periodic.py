"""Unit tests for periodic tasks."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTask


def test_fires_every_period():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 2.0, lambda: times.append(sim.now))
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_start_delay_offsets_first_firing():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 5.0, lambda: times.append(sim.now), start_delay=1.0)
    sim.run(until=12.0)
    assert times == [1.0, 6.0, 11.0]


def test_stop_prevents_future_firings():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, task.stop)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


def test_invalid_period_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTask(sim, 0.0, lambda: None)

