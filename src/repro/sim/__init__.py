"""Discrete-event simulation engine.

The engine is a classic event-heap simulator: callbacks are scheduled at
absolute simulated times and executed in time order.  Everything in the
reproduction (network delivery, protocol timers, churn, workload) runs on a
single :class:`Simulator` instance, so simulated time is globally consistent.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.periodic import PeriodicTask
from repro.sim.rng import RngStreams

__all__ = ["EventHandle", "PeriodicTask", "RngStreams", "Simulator"]
