"""Runtime invariant checker: it must catch real corruption, not just pass."""

import pytest

from repro.metrics.collector import StatsCollector
from repro.overlay import invariants
from repro.overlay.invariants import KINDS, InvariantChecker
from repro.overlay.oracle import Oracle
from repro.pastry.nodeid import intern_descriptor
from tests.conftest import fresh_overlay


class FakeSim:
    """A clock the test controls; good enough for check_now()."""

    def __init__(self, now=0.0):
        self.now = now

    def schedule(self, delay, callback, *args):
        class _Handle:
            cancelled = False

            def cancel(self):
                self.cancelled = True

        return _Handle()


def settled(n=16, seed=404):
    sim, net, nodes = fresh_overlay(n, seed=seed)
    oracle = Oracle()
    for node in nodes:
        oracle.node_alive(node)
        oracle.node_activated(node)
    return sim, net, nodes, oracle


def make_checker(oracle, sim=None):
    checker = InvariantChecker(sim or FakeSim(), oracle)
    checker.stop()
    return checker


@pytest.fixture
def grace(monkeypatch):
    """Set the checker's grace constants (seconds) for one test; the
    checker reads them at every sweep."""
    def set_graces(leaf=None, rt=None, mutual=None):
        for name, value in (("LEAF_GRACE", leaf), ("RT_GRACE", rt),
                            ("MUTUAL_GRACE", mutual)):
            if value is not None:
                monkeypatch.setattr(invariants, name, value)
    return set_graces


# ----------------------------------------------------------------------
def test_healthy_overlay_has_zero_violations_even_with_zero_grace(grace):
    _, _, _, oracle = settled()
    grace(leaf=0.0, rt=0.0, mutual=0.0)
    checker = make_checker(oracle)
    counts = checker.check_now()
    assert counts == {kind: 0 for kind in KINDS}


def test_checker_detects_injected_ring_break(grace):
    # Deliberately unrepaired: we corrupt state and never run the sim, so
    # the protocol gets no chance to fix it — the checker must still see it.
    _, _, nodes, oracle = settled()
    ids = oracle.active_ids()
    victim = oracle.get_active(ids[0])
    successor = ids[1]
    victim.leaf_set.remove(successor)

    grace(mutual=0.0)
    checker = make_checker(oracle)
    counts = checker.check_now()
    assert counts["ring"] >= 1
    # The severed successor still lists the victim, and the victim would
    # readmit it: a mutuality violation with zero grace.
    assert counts["leafset_mutual"] >= 1


def test_mutual_violations_age_through_the_grace_window(grace):
    sim_clock = FakeSim(now=1000.0)
    _, _, nodes, oracle = settled()
    ids = oracle.active_ids()
    victim = oracle.get_active(ids[0])
    removed = victim.leaf_set.get(ids[1])
    victim.leaf_set.remove(ids[1])

    grace(mutual=100.0)
    checker = make_checker(oracle, sim=sim_clock)
    assert checker.check_now()["leafset_mutual"] == 0  # fresh: not yet

    sim_clock.now += 99.0
    assert checker.check_now()["leafset_mutual"] == 0

    sim_clock.now += 1.0
    assert checker.check_now()["leafset_mutual"] >= 1  # outlived the grace

    # A repaired pair stops aging: re-adding resets the clock entirely.
    victim.leaf_set.add(removed)
    assert checker.check_now()["leafset_mutual"] == 0
    victim.leaf_set.remove(ids[1])
    assert checker.check_now()["leafset_mutual"] == 0  # aging restarted


def test_dead_references_counted_after_grace_only(grace):
    sim_clock = FakeSim(now=0.0)
    _, _, nodes, oracle = settled()
    corpse = nodes[3]
    corpse.crash()
    oracle.node_crashed(corpse)

    grace(leaf=0.0, rt=0.0, mutual=0.0)
    counts = make_checker(oracle, sim=sim_clock).check_now()
    assert counts["dead_leaf"] >= 1
    assert counts["dead_rt"] >= 1

    grace(leaf=1e9, rt=1e9)
    counts = make_checker(oracle, sim=sim_clock).check_now()
    assert counts["dead_leaf"] == 0
    assert counts["dead_rt"] == 0


def test_a_live_id_at_a_foreign_address_counts_as_dead_after_grace(grace):
    """An entry that binds a live id to another address reaches no one who
    answers for the id; looked up by id alone it used to read as healthy."""
    sim_clock = FakeSim(now=0.0)
    _, _, nodes, oracle = settled()
    node = nodes[0]
    leaf = node.leaf_set.members()[0]
    entry = node.routing_table.entries()[0]
    for desc in (leaf, entry):
        spoofed = intern_descriptor(desc.id, 0xDEAD0000 + desc.addr)
        node.leaf_set.add(spoofed)  # a member's address is overwritten
        node.routing_table.add(spoofed)  # and so is a slot holder's
    grace(leaf=100.0, rt=100.0, mutual=1e9)
    checker = make_checker(oracle, sim=sim_clock)
    assert checker.check_now() == {kind: 0 for kind in KINDS}  # fresh
    sim_clock.now += 100.0
    counts = checker.check_now()
    assert counts["dead_leaf"] >= 1 and counts["dead_rt"] >= 1
    assert counts["ring"] == 0  # the ring check still reads by id

    # restored, the pair stops aging; spoofed again, it starts over
    node.leaf_set.add(leaf)
    node.routing_table.add(entry)
    assert checker.check_now()["dead_leaf"] == 0
    node.leaf_set.add(intern_descriptor(leaf.id, 0xDEAD0000))
    assert checker.check_now()["dead_leaf"] == 0


def test_periodic_sweeps_report_into_the_collector():
    sim, _, nodes, oracle = settled()
    collector = StatsCollector(window=600.0)
    checker = InvariantChecker(
        sim,
        oracle,
        period=30.0,
        on_report=collector.on_invariant_check,
    )
    sim.run(until=sim.now + 95.0)
    checker.stop()

    assert checker.sweeps == 3
    assert len(collector.invariant_checks) == 3
    # A healthy overlay: all-clear sweeps are recorded, not suppressed.
    assert collector.standing_violations() == 0
    assert collector.max_violations() == 0


def test_collector_reconvergence_from_violation_series():
    collector = StatsCollector(window=600.0)
    zero = {kind: 0 for kind in KINDS}
    bad = dict(zero, ring=4)
    for t, counts in [(30, zero), (60, bad), (90, bad), (120, zero), (150, zero)]:
        collector.on_invariant_check(float(t), counts)

    assert collector.max_violations() == 4
    assert collector.standing_violations() == 0
    # First all-clear sweep at/after t=60 is t=120.
    assert collector.reconvergence_time(60.0) == pytest.approx(60.0)
    assert collector.reconvergence_time(121.0) == pytest.approx(29.0)


def test_collector_reconvergence_never_when_no_clean_sweep():
    collector = StatsCollector(window=600.0)
    bad = {kind: 0 for kind in KINDS}
    bad["ring"] = 1
    collector.on_invariant_check(30.0, bad)
    assert collector.reconvergence_time(0.0) is None
    assert collector.standing_violations() == 1
