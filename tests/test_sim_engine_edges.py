"""Simulator edge cases beyond the basic contract in test_sim_engine."""

from repro.sim.engine import SimulationError, Simulator


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1
    assert "reentrant" in str(errors[0])


def test_run_until_advances_clock_with_empty_heap():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0
    # Back-to-back windows stay contiguous.
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_run_until_advances_clock_past_last_event():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "x")
    sim.run(until=10.0)
    assert fired == ["x"]
    assert sim.now == 10.0


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=4.0)
    assert fired == []
    assert sim.pending_events == 1
    assert sim.now == 4.0  # horizon, not the event time
    sim.run(until=6.0)
    assert fired == ["late"]


def test_double_cancel_is_safe_and_idempotent():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    handle.cancel()
    assert not handle.active
    sim.run()
    assert fired == []


def test_cancelled_events_are_skipped_not_executed():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, fired.append, "keep")
    drop = sim.schedule(1.0, fired.append, "drop")
    drop.cancel()
    sim.schedule(1.0, fired.append, "tail")
    sim.run()
    assert fired == ["keep", "tail"]
    assert keep.cancelled  # consumed handles are marked to release refs
    assert sim.events_executed == 2


def test_max_events_leaves_remainder_queued():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]
    assert sim.pending_events == 3
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_events_scheduled_during_run_at_same_instant_fire_in_order():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    # Tie-break is scheduling order, so the nested zero-delay event lands
    # after the pre-existing same-instant event.
    assert fired == ["first", "second", "nested"]
