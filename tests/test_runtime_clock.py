"""AsyncioClock: the simulator's timer queue, run on the wall clock.

The protocol code was written against ``Simulator``'s contract —
``schedule`` returns a handle whose ``active`` flips false once consumed,
cancellation is lazy and idempotent, callbacks run in time-then-FIFO
order.  These tests pin the same contract on the asyncio side.  They run
the clock on :class:`FakeLoop`, whose time moves only when a test says
so, so no test sleeps; the last one replays one seeded script on a bare
``Simulator`` and on the clock and compares what fired.
"""

import random

import pytest

from repro.runtime.clock import AsyncioClock
from repro.sim.engine import Simulator


class FakeTimer:
    def __init__(self, when, callback):
        self.when, self.callback, self.cancelled = when, callback, False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """The two loop methods the clock uses, on a time moved by ``advance``."""

    def __init__(self):
        self.t = 0.0
        self.timers = []

    def time(self):
        return self.t

    def call_at(self, when, callback):
        self.timers.append(FakeTimer(when, callback))
        return self.timers[-1]

    def advance(self, dt):
        """Move time ``dt`` on, running each wakeup due on the way at its
        own instant (the earliest first; armed order breaks ties)."""
        end = self.t + dt
        while True:
            self.timers = [timer for timer in self.timers if not timer.cancelled]
            due = [timer for timer in self.timers if timer.when <= end]
            if not due:
                break
            timer = min(due, key=lambda timer: timer.when)
            self.timers.remove(timer)
            self.t = max(self.t, timer.when)
            timer.callback()
        self.t = end


@pytest.fixture
def loop():
    return FakeLoop()


def test_now_starts_near_zero_and_advances(loop):
    clock = AsyncioClock(loop)
    first = clock.now
    assert first >= 0.0
    loop.advance(0.02)
    assert clock.now > first
    clock.close()


def test_timers_fire_in_time_order(loop):
    clock = AsyncioClock(loop)
    fired = []
    clock.schedule(0.03, fired.append, "late")
    clock.schedule(0.01, fired.append, "early")
    clock.schedule(0.02, fired.append, "middle")
    loop.advance(0.08)
    assert fired == ["early", "middle", "late"]
    clock.close()


def test_same_deadline_fires_in_scheduling_order(loop):
    clock = AsyncioClock(loop)
    fired = []
    target = clock.now + 0.02
    for tag in ("a", "b", "c"):
        clock.schedule_at(target, fired.append, tag)
    loop.advance(0.06)
    assert fired == ["a", "b", "c"]
    clock.close()


def test_cancelled_timer_does_not_fire(loop):
    clock = AsyncioClock(loop)
    fired = []
    handle = clock.schedule(0.01, fired.append, "no")
    clock.schedule(0.02, fired.append, "yes")
    handle.cancel()
    assert not handle.active
    handle.cancel()  # idempotent
    loop.advance(0.05)
    assert fired == ["yes"]
    clock.close()


def test_consumed_handle_reports_inactive(loop):
    clock = AsyncioClock(loop)
    handle = clock.schedule(0.01, lambda: None)
    assert handle.active
    loop.advance(0.04)
    assert not handle.active
    clock.close()


def test_negative_delay_clamps_to_immediate(loop):
    clock = AsyncioClock(loop)
    fired = []
    clock.schedule(-5.0, fired.append, "x")
    loop.advance(0.03)
    assert fired == ["x"]
    clock.close()


def test_callback_exception_is_contained(loop):
    clock = AsyncioClock(loop)
    fired = []

    def boom():
        raise RuntimeError("protocol bug")

    clock.schedule(0.01, boom)
    clock.schedule(0.02, fired.append, "survived")
    loop.advance(0.06)
    assert fired == ["survived"]
    assert clock.callback_errors == 1
    assert clock.timers_fired == 2
    clock.close()


def test_rescheduling_from_a_callback(loop):
    clock = AsyncioClock(loop)
    fired = []

    def again(n):
        fired.append(n)
        if n < 3:
            clock.schedule(0.005, again, n + 1)

    clock.schedule(0.005, again, 1)
    loop.advance(0.08)
    assert fired == [1, 2, 3]
    clock.close()


def test_close_cancels_pending_and_rejects_new_work(loop):
    # close() drops the queue; a handle still pending then is never read
    # again (``NodeService.stop`` crashes the node, which cancels every
    # timer, before it closes the clock), so its ``active`` is not pinned.
    clock = AsyncioClock(loop)
    fired = []
    clock.schedule(0.01, fired.append, "never")
    clock.close()
    assert clock.pending_timers == 0
    with pytest.raises(RuntimeError):
        clock.schedule(0.01, fired.append, "also never")
    loop.advance(0.03)
    assert fired == []


def test_cancelled_heap_entries_release_references(loop):
    clock = AsyncioClock(loop)
    handle = clock.schedule(1.0, lambda big: None, object())
    handle.cancel()
    assert handle.args == ()
    assert handle.cancelled
    clock.close()


def test_schedule_call_is_fire_and_forget(loop):
    clock = AsyncioClock(loop)
    fired = []
    assert clock.schedule_call(0.01, fired.append, "x") is None
    loop.advance(0.04)
    assert fired == ["x"]
    clock.close()


# ----------------------------------------------------------------------
# Compaction: cancelled timers do not wait out their deadline
# ----------------------------------------------------------------------
def test_cancelled_timers_are_compacted_off_the_heap(loop):
    """The per-hop ack pattern: arm a retransmission timer a whole RTO out,
    cancel it when the ack arrives a millisecond later."""
    clock = AsyncioClock(loop)
    # a live timer at the head: nothing behind it is popped in passing
    keeper = clock.schedule(0.5, lambda: None)
    for _ in range(10_000):
        clock.schedule(1.0, lambda: None).cancel()
        assert clock.pending_timers <= 1024
    assert keeper.active
    clock.close()


def test_firing_order_is_unchanged_across_a_compaction(loop):
    clock = AsyncioClock(loop)
    fired = []
    target = clock.now + 0.05
    handles = []
    for i in range(1500):
        # equal deadlines in threes: seq, not the heap's shape, orders them
        handles.append(
            clock.schedule_at(target + (i // 3) * 1e-5, fired.append, i))
    before = clock.pending_timers
    for i, handle in enumerate(handles):
        if i % 5:
            handle.cancel()
    assert clock.pending_timers < before - 512  # compacted at least once
    loop.advance(0.15)
    assert fired == list(range(0, 1500, 5))
    assert clock.pending_timers == 0
    clock.close()


def test_a_fired_or_cancelled_handle_is_counted_once(loop):
    clock = AsyncioClock(loop)
    fired = clock.schedule(0.005, lambda: None)
    loop.advance(0.03)
    for _ in range(3):
        fired.cancel()  # consumed: off the heap, nothing to account
    live = [clock.schedule(1.0, lambda: None) for _ in range(1200)]
    for handle in live[:600]:
        handle.cancel()
        handle.cancel()  # idempotent: one dead entry, not two
    assert clock.pending_timers == 1200  # 600 dead of 1200: not yet half
    live[600].cancel()
    assert clock.pending_timers == 599
    clock.close()


# ----------------------------------------------------------------------
# Differential: one script, a bare Simulator and the clock
# ----------------------------------------------------------------------
#: a coarse grid, so deadlines collide and sequence numbers order them;
#: the far ones keep cancelled timers queued until compaction drops them
DELAYS = (0.0, 0.25, 1.0, 20.0, 40.0)
OPS = ("schedule", "schedule_at", "schedule_call", "cancel", "advance")


def script(seed, steps=6000):
    """A seeded list of ``(op, value)`` steps.  Cancels nearly match the
    timers armed with a handle and time moves slowly, so the dead come to
    outnumber the live and the queue is compacted (twice, on seeds 1-3)."""
    rng = random.Random(seed)
    ops = rng.choices(OPS, weights=(25, 25, 5, 45, 2), k=steps)
    return [(op, rng.choice(DELAYS[:2] if op == "advance" else DELAYS))
            for op in ops] + [("advance", 100.0)]


def play(ops, substrate, advance):
    """Run ``ops`` on ``substrate`` (a ``Simulator`` or an ``AsyncioClock``)
    -> [(tag, time fired)].  A cancel takes the newest handle, as an ack
    cancels the timer just armed; each tenth callback arms a follow-up."""
    fired, handles = [], []

    def fire(tag):
        fired.append((tag, substrate.now))
        if tag % 10 == 0:
            substrate.schedule(0.25, fire, -tag - 1)

    for tag, (op, value) in enumerate(ops):
        if op == "advance":
            advance(value)
        elif op == "schedule":
            handles.append(substrate.schedule(value, fire, tag))
        elif op == "schedule_at":
            handles.append(substrate.schedule_at(substrate.now + value, fire, tag))
        elif op == "schedule_call":
            substrate.schedule_call(value, fire, tag)
        elif handles:
            handles.pop().cancel()
    return fired


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_clock_fires_what_the_simulator_fires(seed, loop):
    ops = script(seed)
    sim = Simulator()
    expected = play(ops, sim, lambda dt: sim.run(until=sim.now + dt))
    clock = AsyncioClock(loop)
    assert play(ops, clock, loop.advance) == expected
    assert clock.timers_fired == sim.events_executed
    assert len(expected) > 500 and sim.heap_compactions >= 2
    clock.close()
