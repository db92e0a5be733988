"""Calendar-queue discrete-event simulator.

Design notes
------------
* Events are ``(time, seq, handle, callback, args)`` tuples.  The
  monotonically increasing ``seq`` breaks ties deterministically, so two
  events scheduled for the same instant always fire in scheduling order;
  comparison never reaches the non-orderable slots.
* Storage is a two-tier calendar queue instead of one binary heap over
  every outstanding event:

  - the **near heap** holds events already promoted into execution order
    (everything due in the wheel slot currently draining, plus fresh
    events that land at or before it);
  - the **wheel** is a sparse dict of unsorted bucket lists keyed by
    ``int(time * _INV_WIDTH)`` with a small int-heap over the occupied
    bucket indices.  The dict is unbounded, so a trace event hours ahead
    simply sits in its own bucket until the int-heap reaches it.

  Inserting into the wheel is an O(1) list append (amortized: each event
  additionally pays one linear-time heapify share when its bucket is
  promoted), so scheduling cost does not grow with the number of
  outstanding events.

  Ordering is *exactly* the single-heap order: ``time → bucket index``
  is monotone, so every event in a lower-indexed bucket precedes every
  event in a higher-indexed one, equal times always share a bucket, and
  within a bucket the promotion heapify restores ``(time, seq)`` order.
  Promotion only happens when the near heap is empty, and events are
  routed to the near heap on insert only when their bucket index is at
  or below the index being drained — both directions preserve the
  global ``(time, seq)`` total order, byte-for-byte.

* Three entry points share one seq counter and one insert rule — draw
  the next seq, route by bucket index — and therefore a single
  deterministic total order.  Each carries the rule's lines itself: a
  shared helper was a frame per timer armed and per message sent.

  - :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
    :class:`EventHandle` that can be cancelled — timers, retransmissions.
  - :meth:`Simulator.schedule_call` is the handle-free form for
    fire-and-forget events (message deliveries never cancel), skipping
    the handle allocation and consume-time bookkeeping.

* Cancellation is *lazy*: cancelled entries stay queued and are skipped
  when popped — at promotion time for wheel buckets (each bucket is
  filtered as it is moved, so dead timers never even reach the near
  heap) and at pop time for the near heap.  This keeps
  :meth:`EventHandle.cancel` O(1), which matters because protocol code
  cancels timers constantly (every ack cancels a retransmission timer).
  To stop dead entries from dominating memory, the simulator tracks the
  live count and *compacts* both tiers in place — dropping cancelled
  entries and re-heapifying — once the dead fraction passes a
  threshold.  Compaction preserves the (time, seq) order of every live
  entry, so it can never reorder or drop live events.
* The simulator never advances past ``run(until=...)``; events scheduled
  beyond the horizon simply remain queued.
* This is the one timer queue of both substrates:
  :class:`repro.runtime.clock.AsyncioClock` keeps a loop wakeup armed for
  :meth:`Simulator.next_time` and drains the queue with ``run(until=now)``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

#: don't bother compacting queues smaller than this (cheap to carry)
_COMPACT_MIN_DEAD = 512
#: compact when more than this fraction of queued entries is dead
_COMPACT_DEAD_FRACTION = 0.5

#: buckets per simulated second.  The bucket width, 1/16 s, is exactly
#: representable in binary floating point, so ``time * _INV_WIDTH`` is an
#: exact scaling — bucket routing is a pure monotone function of time.
_INV_WIDTH = 16.0


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events pinned in the queue do not
        # keep large object graphs (nodes, messages) alive.
        self.callback = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            # A live queued handle died; compact once the dead dominate.
            sim._dead = dead = sim._dead + 1
            if (dead >= _COMPACT_MIN_DEAD
                    and dead > _COMPACT_DEAD_FRACTION * sim._count):
                sim._compact()

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"EventHandle(t={self.time:.6f}, {state})"


def _noop(*_args: Any) -> None:
    return None


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. negative delays)."""


# A queue entry is (time, seq, handle | None, callback | None, args | None):
# handle-carrying entries keep callback/args on the handle (so cancel() can
# release them); handle-free entries inline them and can never be cancelled.
_Entry = Tuple[float, int, Optional[EventHandle],
               Optional[Callable[..., None]], Optional[Tuple[Any, ...]]]


class Simulator:
    """Single-threaded discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (2.5, ['hello'])
    """

    __slots__ = ("now", "_seq", "_dead", "_count", "_events_executed",
                 "_compactions", "_promotions", "_running", "_near",
                 "_buckets", "_bucket_heap", "_cur_idx")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        #: lazily-cancelled entries still queued (live = count - dead)
        self._dead: int = 0
        #: total queued entries, including lazily-cancelled ones
        self._count: int = 0
        self._events_executed: int = 0
        self._compactions: int = 0
        self._promotions: int = 0
        self._running = False
        # Calendar-queue tiers.  All containers are mutated strictly in
        # place — run() holds a local alias across promotions.
        self._near: List[_Entry] = []
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        self._cur_idx: int = -1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        handle = EventHandle(time, callback, args, self)
        self._seq += 1
        self._count += 1
        entry = (time, self._seq, handle, None, None)
        idx = int(time * _INV_WIDTH)
        if idx <= self._cur_idx:
            heapq.heappush(self._near, entry)
        elif idx in self._buckets:
            self._buckets[idx].append(entry)
        else:
            self._buckets[idx] = [entry]
            heapq.heappush(self._bucket_heap, idx)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        handle = EventHandle(time, callback, args, self)
        self._seq += 1
        self._count += 1
        entry = (time, self._seq, handle, None, None)
        idx = int(time * _INV_WIDTH)
        if idx <= self._cur_idx:
            heapq.heappush(self._near, entry)
        elif idx in self._buckets:
            self._buckets[idx].append(entry)
        else:
            self._buckets[idx] = [entry]
            heapq.heappush(self._bucket_heap, idx)
        return handle

    def schedule_call(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        Semantically identical to ``schedule(delay, callback, *args)`` for
        an event that is never cancelled — it draws the same seq number, so
        interleavings with handle-carrying events are unchanged — but skips
        the handle allocation and the consume-time bookkeeping.  This is
        the transport's per-message path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        self._seq += 1
        self._count += 1
        entry = (time, self._seq, None, callback, args)
        idx = int(time * _INV_WIDTH)
        if idx <= self._cur_idx:
            heapq.heappush(self._near, entry)
        elif idx in self._buckets:
            self._buckets[idx].append(entry)
        else:
            self._buckets[idx] = [entry]
            heapq.heappush(self._bucket_heap, idx)

    # ------------------------------------------------------------------
    # Promotion: refill the near heap from the wheel
    # ------------------------------------------------------------------
    def _promote(self) -> bool:
        """Advance to the next occupied bucket and heapify it into the near
        heap; returns False when no events remain anywhere.

        Correctness: called only with the near heap empty.  Every queued
        event's bucket index exceeds ``_cur_idx`` (insertion routes lower
        indices to the near heap) and ``time → index`` is monotone — so
        draining the minimum-index bucket next reproduces the single-heap
        (time, seq) order exactly.  Cancelled entries are dropped here,
        per bucket, while the promotion touches every slot anyway.
        """
        if not self._bucket_heap:
            return False
        idx = heapq.heappop(self._bucket_heap)
        self._cur_idx = idx
        self._promotions += 1
        # Compaction may have emptied and removed the bucket; its index
        # stays in the int-heap and promotes to nothing.
        bucket = self._buckets.pop(idx, None)
        if bucket:
            near = self._near
            for entry in bucket:
                handle = entry[2]
                if handle is None or not handle.cancelled:
                    near.append(entry)
            dropped = len(bucket) - len(near)
            self._count -= dropped
            self._dead -= dropped
            heapq.heapify(near)
        return True

    def next_time(self) -> Optional[float]:
        """Earliest queued event time (cancelled wheel entries excluded
        opportunistically; promotes as needed, which preserves order)."""
        while True:
            if self._near:
                return self._near[0][0]
            if not self._promote():
                return None

    # ------------------------------------------------------------------
    # Lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries from both tiers and re-heapify, *in place*.

        In place matters: ``run()`` holds a local reference to the near
        heap.  Determinism: every surviving entry keeps its (time, seq)
        key, bucket routing is a pure function of time, and heap pop
        order is a pure function of the key set — so live events fire
        exactly as they would have without compaction.
        """
        near = self._near
        near[:] = [
            entry for entry in near
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(near)
        buckets = self._buckets
        for idx in list(buckets):
            bucket = buckets[idx]
            bucket[:] = [
                entry for entry in bucket
                if entry[2] is None or not entry[2].cancelled
            ]
            if not bucket:
                del buckets[idx]  # _promote tolerates the stale index
        self._count -= self._dead
        self._dead = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Stops when no events remain, when the next event is later than
        ``until``, or after ``max_events`` callbacks (a runaway-loop guard
        for tests).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        near = self._near
        pop = heapq.heappop
        try:
            while True:
                if not near:
                    if not self._promote():
                        break
                    continue
                entry = near[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(near)
                self._count -= 1
                handle = entry[2]
                if handle is None:
                    # Handle-free entry: nothing to consume.
                    self.now = time
                    entry[3](*entry[4])  # type: ignore[misc]
                elif handle.cancelled:
                    self._dead -= 1
                    continue
                else:
                    self.now = time
                    callback, args = handle.callback, handle.args
                    # Mark consumed (handle.active turns False, as timer
                    # bookkeeping relies on) and release references —
                    # without going through cancel(), which would double-
                    # count the cancellation in the live-event ledger.
                    handle.cancelled = True
                    handle.callback = _noop
                    handle.args = ()
                    callback(*args)
                executed += 1
                self._events_executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self.now < until:
            next_time = self.next_time()
            if next_time is None or next_time > until:
                # Advance the clock to the horizon so back-to-back run()
                # calls see contiguous time windows.
                self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Queued entries, *including* lazily-cancelled ones.

        This over-counts the work actually left (every cancelled-but-not-
        yet-dropped timer inflates it); use :attr:`live_events` for
        progress/health reporting.
        """
        return self._count

    @property
    def live_events(self) -> int:
        """Queued events that will actually fire (cancelled ones excluded)."""
        return self._count - self._dead

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def heap_compactions(self) -> int:
        """How many times the queue was compacted (observability/tests)."""
        return self._compactions

    def scheduler_stats(self) -> Dict[str, int]:
        """Calendar-queue health counters for profiling/diagnostics."""
        return {
            "near_len": len(self._near),
            "wheel_buckets": len(self._buckets),
            "promotions": self._promotions,
            "compactions": self._compactions,
        }
