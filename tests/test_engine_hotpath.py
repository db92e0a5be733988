"""Hot-path engine contracts: schedule_call equivalence, live_events
accounting and heap compaction.

The refactored engine adds a handle-free scheduling fast path
(``schedule_call``) and bounded compaction of lazily-cancelled heap
entries.  These tests pin the equivalence contract the refactor was built
on: same-seed runs execute the same callbacks in the same order whichever
scheduling API produced them, and compaction is invisible except through
the ``heap_compactions`` counter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import SimulationError, Simulator

# Small delay grid with guaranteed ties so seq-number ordering is exercised.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])


def _run_schedule(ops):
    """Execute ops via the handle path; return the execution order."""
    sim = Simulator()
    order = []
    for tag, delay, _use_call in ops:
        sim.schedule(delay, order.append, tag)
    sim.run()
    return order


def _run_mixed(ops):
    """Execute ops via schedule/schedule_call per flag; return the order."""
    sim = Simulator()
    order = []
    for tag, delay, use_call in ops:
        if use_call:
            sim.schedule_call(delay, order.append, tag)
        else:
            sim.schedule(delay, order.append, tag)
    sim.run()
    return order


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(), _DELAYS, st.booleans()),
        max_size=50,
    )
)
def test_schedule_call_equivalent_to_schedule(ops):
    """Any mix of schedule/schedule_call executes in handle-path order.

    Both APIs share the monotonic sequence counter, so the (time, seq)
    heap keys — and therefore pop order, including ties — are identical
    no matter which API scheduled each event.
    """
    tagged = [(i, delay, use_call) for i, (_, delay, use_call) in enumerate(ops)]
    assert _run_mixed(tagged) == _run_schedule(tagged)


def tighten(patch, min_dead, dead_fraction):
    """Set the engine's compaction policy for one test."""
    patch.setattr(engine, "_COMPACT_MIN_DEAD", min_dead)
    patch.setattr(engine, "_COMPACT_DEAD_FRACTION", dead_fraction)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_DELAYS, st.booleans()), min_size=1, max_size=60),
    st.randoms(use_true_random=False),
)
def test_compaction_never_reorders_or_drops_live_events(events, rnd):
    """With compaction forced aggressively, live events still run in
    (time, seq) order and cancelled ones never run."""
    sim = Simulator()
    executed = []
    handles = []
    for i, (delay, _cancel) in enumerate(events):
        handles.append(sim.schedule(delay, executed.append, i))
    cancelled = set()
    # Tighten thresholds far below production values to force compaction
    # even in small examples.
    with pytest.MonkeyPatch.context() as patch:
        tighten(patch, 2, 0.25)
        for i, (_delay, cancel) in enumerate(events):
            if cancel and rnd.random() < 0.8:
                handles[i].cancel()
                cancelled.add(i)
    sim.run()

    expected = [
        i
        for i, _ in sorted(
            ((i, ev) for i, ev in enumerate(events) if i not in cancelled),
            key=lambda pair: (pair[1][0], pair[0]),
        )
    ]
    assert executed == expected
    assert sim.live_events == 0
    assert sim.pending_events == 0


def test_live_events_accounting():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule_call(2.0, lambda: None)
    h3 = sim.schedule(3.0, lambda: None)
    assert sim.live_events == 3
    assert sim.pending_events == 3

    h1.cancel()
    assert sim.live_events == 2
    # Lazy cancellation: the dead entry stays in the heap until popped or
    # compacted away.
    assert sim.pending_events == 3
    h1.cancel()  # idempotent
    assert sim.live_events == 2

    sim.run()
    assert sim.live_events == 0
    assert sim.pending_events == 0
    assert sim.events_executed == 2
    assert not h3.active  # consumed handles read as spent


def test_compaction_triggers_and_counts(monkeypatch):
    tighten(monkeypatch, 8, 0.5)
    sim = Simulator()
    survivors = []
    keep = [sim.schedule(10.0 + i, survivors.append, i) for i in range(4)]
    doomed = [sim.schedule(5.0, lambda: None) for _ in range(20)]
    assert sim.heap_compactions == 0
    for handle in doomed:
        handle.cancel()
    assert sim.heap_compactions >= 1
    # Compaction dropped the dead entries present when it fired; entries
    # cancelled after the rebuild may sit (lazily) below the threshold.
    assert sim.live_events == len(keep)
    assert len(keep) <= sim.pending_events < len(keep) + len(doomed)
    sim.run()
    assert survivors == [0, 1, 2, 3]


def test_compaction_below_threshold_is_deferred(monkeypatch):
    tighten(monkeypatch, 64, 0.5)
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None).cancel()
    # Too few dead entries to justify a rebuild: heap keeps them lazily.
    assert sim.heap_compactions == 0
    assert sim.pending_events == 10
    assert sim.live_events == 0
    sim.run()
    assert sim.events_executed == 0


def test_far_timer_cancelled_from_the_next_tick_never_fires():
    """The ack/retransmission pattern at production thresholds: every tick
    arms a timer 100 simulated seconds out and cancels the one the previous
    tick armed, so the wheel fills with dead entries that promotion and
    compaction must step over without ever running one."""
    ticks = 12_000
    sim = Simulator()
    count = [0]
    pending = [None]
    fired_timers = []

    def tick():
        count[0] += 1
        if pending[0] is not None:
            pending[0].cancel()
        if count[0] < ticks:
            pending[0] = sim.schedule(100.0, fired_timers.append, count[0])
            sim.schedule(0.01, tick)

    sim.schedule(0.01, tick)
    sim.run()
    assert fired_timers == []
    assert sim.events_executed == count[0] == ticks  # ticks - 1 cancels
    assert sim.now == pytest.approx(ticks * 0.01)
    assert sim.live_events == 0
    assert sim.heap_compactions >= 1


def test_schedule_call_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_call(-0.1, lambda: None)
