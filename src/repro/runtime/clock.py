"""Wall-clock implementation of the :class:`repro.interfaces.Clock` seam:
``now`` and ``schedule``, nothing more.

The timers live in a :class:`repro.sim.engine.Simulator`, so both
substrates share one queue, one handle class, lazy cancellation and
compaction.  :class:`AsyncioClock` only drives that queue from a real
event loop: it keeps a *single* ``loop.call_at`` wakeup armed for the
queue's earliest entry, instead of one asyncio timer per protocol timer,
and each wakeup runs the queue up to the wall clock.

``now`` is seconds since clock construction (``loop.time()`` minus the
origin), so protocol timestamps look exactly like simulation timestamps:
small floats starting near zero.

Callback exceptions are logged and swallowed: a protocol bug in one
timer must not stop the timers of every other node in the process.
"""

from __future__ import annotations

import asyncio
import logging
from math import inf
from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator

log = logging.getLogger(__name__)


class AsyncioClock:
    """A :class:`Simulator` timer queue run on an asyncio loop's clock.

    Multiple nodes in one process may share a single instance (``repro
    live`` does): ``now`` is then one consistent timeline across them,
    which keeps cross-node latency arithmetic meaningful.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._time = self._loop.time  # bound once: read several times a datagram
        self._origin = self._time()
        #: the timer queue; None once the clock is closed
        self._sim: Optional[Simulator] = Simulator()
        self._wakeup: Optional[asyncio.TimerHandle] = None
        #: when the armed wakeup is due: inf when none is, -inf while
        #: ``_fire`` runs (it arms once, on its way out)
        self._wakeup_time = inf
        self.timers_fired = 0
        self.callback_errors = 0

    @property
    def now(self) -> float:
        """Seconds since clock construction (monotonic)."""
        return self._time() - self._origin

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        sim = self._sim
        if sim is None:
            raise RuntimeError("clock is closed")
        # Clamp a negative delay (routine skew on a real clock).  The queue's
        # now, its last run(until=) horizon, never passes this clock's.
        time = self._time() - self._origin
        if delay > 0.0:
            time += delay
        handle = sim.schedule(time - sim.now, callback, *args)
        if time < self._wakeup_time:
            self._arm(time)
        return handle

    def _arm(self, due: float) -> None:
        """Keep exactly one loop wakeup armed, for ``due``."""
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._wakeup_time = due
        self._wakeup = self._loop.call_at(self._origin + due, self._fire)

    def _fire(self) -> None:
        """Run the queue until nothing is due, then arm for the next."""
        self._wakeup, self._wakeup_time = None, -inf
        sim = self._sim
        assert sim is not None  # close() cancels the wakeup
        due: Optional[float] = None
        try:
            while sim is self._sim:
                try:
                    sim.run(until=self.now)
                except Exception:  # its entry is already off the queue
                    self.callback_errors += 1
                    log.exception("timer callback failed")
                    continue
                due = sim.next_time()
                if due is None or due > self.now:
                    break
        finally:
            self._wakeup_time = inf
            self.timers_fired = sim.events_executed + self.callback_errors
        if due is not None and sim is self._sim:
            self._arm(due)

    def close(self) -> None:
        """Cancel the wakeup and drop the queue; no scheduling after."""
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        self._sim = None
