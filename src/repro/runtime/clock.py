"""Wall-clock implementation of the :class:`repro.interfaces.Clock` seam.

The protocol code arms thousands of short timers (per-hop ack
retransmissions, probe timeouts) and cancels most of them before they
fire — exactly the workload :class:`repro.sim.engine.Simulator` optimises
with lazy cancellation.  :class:`AsyncioClock` mirrors that design on a
real event loop: timers live on one binary heap, cancellation is O(1) and
lazy, and a *single* ``loop.call_at`` wakeup is kept armed for the
earliest live entry instead of one asyncio timer per protocol timer.
Like the simulator, the clock counts its dead entries and compacts the
heap in place once they dominate: a cancelled ack timer would otherwise
sit there for a whole RTO.

``now`` is seconds since clock construction (``loop.time()`` minus the
origin), so protocol timestamps look exactly like simulation timestamps:
small floats starting near zero.

Callback exceptions are logged and swallowed — a protocol bug in one
timer must not kill the timer wheel under every other node in the
process.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
from typing import Any, Callable, List, Optional, Tuple

log = logging.getLogger(__name__)

#: don't bother compacting while fewer entries than this are dead, and
#: compact when more than half the heap is (the simulator's policy)
_COMPACT_MIN_DEAD = 512


def _noop(*_args: Any) -> None:
    return None


class RealTimerHandle:
    """A scheduled wall-clock callback; structurally a ``TimerHandle``."""

    __slots__ = ("time", "callback", "args", "cancelled", "_clock")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: Tuple[Any, ...],
                 clock: Optional["AsyncioClock"] = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: the clock whose heap holds this handle; None once it is off it
        self._clock = clock

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        # Release references: cancelled entries stay on the heap until
        # popped and must not pin message/node object graphs.
        self.callback = _noop
        self.args = ()
        clock = self._clock
        if clock is not None:
            self._clock = None
            clock._dead = dead = clock._dead + 1
            if dead >= _COMPACT_MIN_DEAD and 2 * dead > len(clock._heap):
                clock._compact()

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"RealTimerHandle(t={self.time:.6f}, {state})"


class AsyncioClock:
    """Timer wheel over one asyncio event loop.

    Multiple nodes in one process may share a single instance (``repro
    live`` does): ``now`` is then one consistent timeline across them,
    which keeps cross-node latency arithmetic meaningful.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        #: the loop's clock as one bound call: ``now`` is read several
        #: times per datagram
        self._time = self._loop.time
        self._origin = self._time()
        #: (time, seq, handle); seq breaks ties in scheduling order, like
        #: the simulator's heap, and keeps handles out of comparisons
        self._heap: List[Tuple[float, int, RealTimerHandle]] = []
        #: lazily cancelled entries still on the heap
        self._dead = 0
        self._seq = 0
        self._wakeup: Optional[asyncio.TimerHandle] = None
        self._wakeup_time: Optional[float] = None
        self._closed = False
        self.timers_fired = 0
        self.callback_errors = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since clock construction (monotonic)."""
        return self._time() - self._origin

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> RealTimerHandle:
        # The simulator raises on negative delays to catch protocol bugs;
        # on a real clock a tiny negative delay is routine scheduling skew
        # (the deadline passed while we computed it), so clamp instead.
        return self.schedule_at(self.now + max(0.0, delay), callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> RealTimerHandle:
        if self._closed:
            raise RuntimeError("clock is closed")
        handle = RealTimerHandle(time, callback, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        wakeup_time = self._wakeup_time
        if wakeup_time is None or time < wakeup_time:
            # Otherwise the armed wakeup is early enough already — the
            # case of every retransmission timer, a whole RTO out.
            self._rearm()
        return handle

    def schedule_call(self, delay: float, callback: Callable[..., None],
                      *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` (handle discarded)."""
        self.schedule(delay, callback, *args)

    @property
    def pending_timers(self) -> int:
        """Heap size, including lazily-cancelled entries."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def _rearm(self) -> None:
        """Keep exactly one loop wakeup armed for the earliest live timer."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
                self._wakeup_time = None
            return
        due = heap[0][0]
        if self._wakeup is not None:
            if self._wakeup_time is not None and self._wakeup_time <= due:
                return  # already waking up early enough
            self._wakeup.cancel()
        self._wakeup_time = due
        self._wakeup = self._loop.call_at(self._origin + due, self._fire)

    def _fire(self) -> None:
        self._wakeup = None
        self._wakeup_time = None
        heap = self._heap
        now = self.now
        while heap and heap[0][0] <= now:
            _, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._dead -= 1
                continue
            callback, args = handle.callback, handle.args
            # Mark consumed (handle.active turns False, which protocol
            # timer bookkeeping relies on) and release references.
            handle.cancelled = True
            handle.callback = _noop
            handle.args = ()
            handle._clock = None
            self.timers_fired += 1
            try:
                callback(*args)
            except Exception:
                self.callback_errors += 1
                log.exception("timer callback failed")
            now = self.now  # callbacks take real time; re-read the clock
        self._rearm()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (``_fire`` holds
        an alias).  Every survivor keeps its (time, seq) key, so the firing
        order is what it would have been."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def close(self) -> None:
        """Cancel everything; the clock cannot schedule afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
            self._wakeup_time = None
        for _, _, handle in self._heap:
            handle._clock = None  # the heap is going: nothing to account
            handle.cancel()
        self._heap.clear()
        self._dead = 0
