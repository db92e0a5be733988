"""Property test for the simulation core's one ordering contract.

The calendar-queue scheduler executes events in exactly the ``(time, seq)``
order a plain sorted list would — near heap, wheel buckets, promotion and
lazy cancellation are pure implementation detail.

Hypothesis drives randomized op sequences over a small delay grid with
guaranteed ties, so tie-breaking by sequence number is always exercised;
the grid reaches past 1000 simulated seconds, so events that sit in the
wheel for thousands of bucket widths are compared too.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

# Delay grid with exact float ties: fractions of the 1/16 s bucket width
# (distinct times that share a bucket) up to 16,000 bucket widths ahead.
_DELAYS = st.sampled_from(
    [0.0, 1 / 64, 1 / 32, 0.25, 1.0, 7.5, 100.0, 1000.0])

_API_SCHEDULE, _API_SCHEDULE_CALL = range(2)

# Scheduled before the run: (delay, api, cancel it straight away?)
_OPS = st.lists(
    st.tuples(_DELAYS, st.integers(0, 1), st.booleans()),
    max_size=60,
)
# Scheduled from inside callbacks: (near delay, far delay, cancel the
# previous far timer?)
_PROGRAM = st.lists(st.tuples(_DELAYS, _DELAYS, st.booleans()), max_size=40)


class _SortedReference:
    """The specification: one list kept sorted by (time, seq)."""

    class _Handle:
        def __init__(self, entry):
            self._entry = entry

        def cancel(self):
            self._entry[2] = None

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._queue = []

    def _insert(self, time, callback, *args):
        self._seq += 1
        entry = [time, self._seq, callback, args]
        bisect.insort(self._queue, entry)  # seq is unique: ties stop there
        return self._Handle(entry)

    def schedule(self, delay, callback, *args):
        return self._insert(self.now + delay, callback, *args)

    def schedule_call(self, delay, callback, *args):
        self._insert(self.now + delay, callback, *args)

    def run(self):
        while self._queue:
            time, _seq, callback, args = self._queue.pop(0)
            if callback is not None:
                self.now = time
                callback(*args)


def _drive(sim, ops, program):
    """Run ``ops`` then ``program`` on ``sim``; return the execution log.

    ``ops`` are scheduled up front through both entry points, some
    cancelled at once.  ``program`` is consumed from inside callbacks:
    each executed event takes one entry, schedules a near child plus a far
    timer, and ``do_cancel`` lazily cancels the previous far timer, leaving
    a dead entry for promotion/compaction to step over.
    """
    order = []
    pending = [None]
    cursor = [0]

    def tick(tag):
        order.append((tag, round(sim.now, 9)))
        if cursor[0] >= len(program):
            return
        near_delay, far_delay, do_cancel = program[cursor[0]]
        cursor[0] += 1
        if do_cancel and pending[0] is not None:
            pending[0].cancel()
            pending[0] = None
        sim.schedule_call(near_delay, tick, 2 * tag + 1)
        pending[0] = sim.schedule(far_delay + 50.0, tick, 2 * tag + 2)

    for i, (delay, api, do_cancel) in enumerate(ops):
        if api == _API_SCHEDULE:
            handle = sim.schedule(delay, order.append, ("op", i))
        else:
            sim.schedule_call(delay, order.append, ("op", i))
            handle = None
        if do_cancel and handle is not None:
            handle.cancel()
    sim.schedule(0.0, tick, 0)
    sim.run()
    return order


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, program=_PROGRAM)
def test_calendar_queue_matches_sorted_reference(ops, program):
    """Static schedule + cancel + in-callback scheduling: execution order
    is exactly that of the sorted list.

    Every scheduling API draws one sequence number per entry (cancelled or
    not), so the two sides number their events identically.
    """
    assert _drive(Simulator(), ops, program) == _drive(
        _SortedReference(), ops, program)
