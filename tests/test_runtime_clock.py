"""AsyncioClock: the wall-clock twin of the simulator's timer semantics.

The protocol code was written against ``Simulator``'s contract —
``schedule`` returns a handle whose ``active`` flips false once consumed,
cancellation is lazy and idempotent, callbacks run in time-then-FIFO
order.  These tests pin the same contract on the asyncio implementation,
with real (small) delays.
"""

import asyncio

import pytest

from repro.runtime.clock import AsyncioClock, RealTimerHandle


def run(coro):
    return asyncio.run(coro)


def test_now_starts_near_zero_and_advances():
    async def main():
        clock = AsyncioClock()
        first = clock.now
        assert first >= 0.0
        await asyncio.sleep(0.02)
        assert clock.now > first
        clock.close()
    run(main())


def test_timers_fire_in_time_order():
    async def main():
        clock = AsyncioClock()
        fired = []
        clock.schedule(0.03, fired.append, "late")
        clock.schedule(0.01, fired.append, "early")
        clock.schedule(0.02, fired.append, "middle")
        await asyncio.sleep(0.08)
        assert fired == ["early", "middle", "late"]
        clock.close()
    run(main())


def test_same_deadline_fires_in_scheduling_order():
    async def main():
        clock = AsyncioClock()
        fired = []
        target = clock.now + 0.02
        for tag in ("a", "b", "c"):
            clock.schedule_at(target, fired.append, tag)
        await asyncio.sleep(0.06)
        assert fired == ["a", "b", "c"]
        clock.close()
    run(main())


def test_cancelled_timer_does_not_fire():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.01, fired.append, "no")
        clock.schedule(0.02, fired.append, "yes")
        handle.cancel()
        assert not handle.active
        handle.cancel()  # idempotent
        await asyncio.sleep(0.05)
        assert fired == ["yes"]
        clock.close()
    run(main())


def test_consumed_handle_reports_inactive():
    async def main():
        clock = AsyncioClock()
        handle = clock.schedule(0.01, lambda: None)
        assert handle.active
        await asyncio.sleep(0.04)
        assert not handle.active
        clock.close()
    run(main())


def test_negative_delay_clamps_to_immediate():
    async def main():
        clock = AsyncioClock()
        fired = []
        clock.schedule(-5.0, fired.append, "x")
        await asyncio.sleep(0.03)
        assert fired == ["x"]
        clock.close()
    run(main())


def test_callback_exception_is_contained():
    async def main():
        clock = AsyncioClock()
        fired = []

        def boom():
            raise RuntimeError("protocol bug")

        clock.schedule(0.01, boom)
        clock.schedule(0.02, fired.append, "survived")
        await asyncio.sleep(0.06)
        assert fired == ["survived"]
        assert clock.callback_errors == 1
        assert clock.timers_fired == 2
        clock.close()
    run(main())


def test_rescheduling_from_a_callback():
    async def main():
        clock = AsyncioClock()
        fired = []

        def again(n):
            fired.append(n)
            if n < 3:
                clock.schedule(0.005, again, n + 1)

        clock.schedule(0.005, again, 1)
        await asyncio.sleep(0.08)
        assert fired == [1, 2, 3]
        clock.close()
    run(main())


def test_close_cancels_pending_and_rejects_new_work():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.01, fired.append, "never")
        clock.close()
        assert not handle.active
        assert clock.pending_timers == 0
        with pytest.raises(RuntimeError):
            clock.schedule(0.01, fired.append, "also never")
        await asyncio.sleep(0.03)
        assert fired == []
    run(main())


def test_cancelled_heap_entries_release_references():
    handle = RealTimerHandle(1.0, lambda big: None, (object(),))
    handle.cancel()
    assert handle.args == ()
    assert handle.cancelled


def test_schedule_call_is_fire_and_forget():
    async def main():
        clock = AsyncioClock()
        fired = []
        assert clock.schedule_call(0.01, fired.append, "x") is None
        await asyncio.sleep(0.04)
        assert fired == ["x"]
        clock.close()
    run(main())


# ----------------------------------------------------------------------
# Heap compaction: cancelled timers do not wait out their deadline
# ----------------------------------------------------------------------
def test_cancelled_timers_are_compacted_off_the_heap():
    """The per-hop ack pattern: arm a retransmission timer a whole RTO out,
    cancel it when the ack arrives a millisecond later."""
    async def main():
        clock = AsyncioClock()
        # a live timer at the head: nothing behind it is popped in passing
        keeper = clock.schedule(0.5, lambda: None)
        for _ in range(10_000):
            clock.schedule(1.0, lambda: None).cancel()
            assert clock.pending_timers <= 1024
        assert keeper.active
        clock.close()
    run(main())


def test_firing_order_is_unchanged_across_a_compaction():
    async def main():
        clock = AsyncioClock()
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
        await asyncio.sleep(0.15)
        assert fired == list(range(0, 1500, 5))
        assert clock.pending_timers == 0
        clock.close()
    run(main())


def test_a_fired_or_cancelled_handle_is_counted_once():
    async def main():
        clock = AsyncioClock()
        fired = clock.schedule(0.005, lambda: None)
        await asyncio.sleep(0.03)
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
    run(main())
