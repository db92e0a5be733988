"""Fault injection at the transport: partitions, gray nodes, schedules."""

import random

import pytest

import repro.faults.models as models
import repro.faults.schedule as schedule_module
from repro.faults import (
    BurstLoss,
    FaultEvent,
    FaultSchedule,
    GEParams,
    GrayFailure,
    GrayFailures,
    LinkJitter,
    JitterParams,
    Partition,
)
from repro.faults.state import FaultState
from repro.network.simple import UniformDelayTopology
from repro.network.transport import Network
from repro.sim.engine import Simulator


def make_net(n=2, delay=0.05, seed=1, loss=0.0):
    sim = Simulator()
    net = Network(sim, UniformDelayTopology(delay), random.Random(seed), loss)
    inboxes = {}
    addrs = []
    for _ in range(n):
        addr = net.attach()
        inboxes[addr] = []
        net.register(addr, lambda src, msg, a=addr: inboxes[a].append((src, msg)))
        addrs.append(addr)
    return sim, net, addrs, inboxes


def with_faults(net):
    state = FaultState(net.sim, random.Random(99))
    net.faults = state
    return state


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
def test_partition_blocks_cross_group_but_not_same_group():
    sim, net, (a, b, c), inboxes = make_net(n=3)
    state = with_faults(net)
    state.set_partition({a: 0, b: 1, c: 1})

    net.send(a, b, "cross")
    net.send(b, c, "same")
    sim.run()

    assert inboxes[b] == []
    assert inboxes[c] == [(b, "same")]
    assert state.drops["partition"] == 1
    assert sum(state.drops.values()) == 1


def test_partition_heal_restores_connectivity():
    sim, net, (a, b), inboxes = make_net()
    state = with_faults(net)
    state.set_partition({a: 0, b: 1})
    net.send(a, b, "during")
    sim.run()
    assert inboxes[b] == []

    state.heal_partition()
    net.send(a, b, "after")
    sim.run()
    assert inboxes[b] == [(a, "after")]


def test_partition_cuts_messages_already_in_flight():
    sim, net, (a, b), inboxes = make_net(delay=1.0)
    state = with_faults(net)
    net.send(a, b, "in-flight")  # passes filter_send: no partition yet
    sim.schedule(0.5, state.set_partition, {a: 0, b: 1})
    sim.run()
    assert inboxes[b] == []
    assert state.drops["partition"] == 1


def test_unlisted_addresses_default_to_group_zero():
    sim, net, (a, b, c), inboxes = make_net(n=3)
    state = with_faults(net)
    state.set_partition({c: 1})  # a and b implicitly in group 0
    net.send(a, b, "zero-zero")
    sim.run()
    assert inboxes[b] == [(a, "zero-zero")]


# ----------------------------------------------------------------------
# Gray failures
# ----------------------------------------------------------------------
def test_gray_failure_validation():
    with pytest.raises(ValueError):
        GrayFailure(out_drop=1.5)
    with pytest.raises(ValueError):
        GrayFailure(delay_factor=0.5)


def test_stuck_node_is_receive_only():
    sim, net, (a, b), inboxes = make_net()
    state = with_faults(net)
    state.set_gray(a, GrayFailure.stuck())

    net.send(a, b, "out")  # dropped: a's outgoing traffic dies
    net.send(b, a, "in")  # delivered: incoming is untouched
    sim.run()

    assert inboxes[b] == []
    assert inboxes[a] == [(b, "in")]
    assert state.drops["gray"] == 1


def test_lossy_gray_drops_the_configured_fraction():
    sim, net, (a, b), inboxes = make_net()
    state = with_faults(net)
    state.set_gray(a, GrayFailure.lossy(0.5))
    for _ in range(600):
        net.send(a, b, "x")
    sim.run()
    assert state.drops["gray"] == pytest.approx(300, abs=60)
    assert len(inboxes[b]) == 600 - state.drops["gray"]


def test_slow_gray_inflates_delay_of_delivered_messages():
    sim, net, (a, b), inboxes = make_net(delay=0.1)
    state = with_faults(net)
    state.set_gray(a, GrayFailure(delay_factor=5.0))

    arrivals = []
    net.register(b, lambda src, msg: arrivals.append(sim.now))
    net.send(a, b, "late")
    net.send(b, a, "on-time")
    sim.run()

    assert arrivals == [pytest.approx(0.1 * 5.0)]
    assert sim.now == pytest.approx(0.5)  # nothing outlives the slow delivery


def test_clear_gray_clears_all():
    sim, net, (a, b), _ = make_net()
    state = with_faults(net)
    state.set_gray(a, GrayFailure.stuck())
    state.set_gray(b, GrayFailure.stuck())
    assert state.filter_send(a, b) == state.filter_send(b, a) == "gray"
    state.clear_gray()
    assert state.filter_send(a, b) is None
    assert state.filter_send(b, a) is None
    assert not state.engaged


# ----------------------------------------------------------------------
# Burst loss and jitter at the transport
# ----------------------------------------------------------------------
def test_burst_loss_is_per_directed_link(monkeypatch):
    monkeypatch.setattr(models, "GOOD_MEAN", 1.0)
    sim, net, (a, b), _ = make_net()
    state = with_faults(net)
    state.set_burst_loss(GEParams(bad_mean=1.0, loss_bad=1.0))
    net.send(a, b, "x")
    net.send(b, a, "y")
    sim.run()
    assert set(state._links) <= {(a, b), (b, a)}
    assert len(state._links) == 2


def test_jitter_defers_but_never_loses():
    sim, net, (a, b), inboxes = make_net(delay=0.05)
    state = with_faults(net)
    state.set_jitter(JitterParams(jitter=0.05))
    for _ in range(100):
        net.send(a, b, "j")
    sim.run()
    assert len(inboxes[b]) == 100
    assert net.messages_lost == 0
    assert 0.05 <= sim.now <= 0.10  # last arrival inside the jitter window


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------
def test_schedule_applies_and_reverts_at_the_right_times():
    sim, net, (a, b), inboxes = make_net()
    schedule = FaultSchedule(
        [FaultEvent(Partition(fraction=0.5), start=10.0, duration=5.0)]
    )
    state = schedule.install(sim, net, random.Random(4), offset=2.0)

    probe_log = []

    def probe(tag):
        net.send(a, b, tag)

    sim.schedule(11.0, probe, "before")  # < 12.0 = offset + start
    sim.schedule(13.0, probe, "during")  # inside [12, 17)
    sim.schedule(17.5, probe, "after")  # >= 17.0 = offset + end
    sim.run()

    delivered = [msg for _, msg in inboxes[b]]
    assert "before" in delivered and "after" in delivered
    # The 50% split of a two-address population cuts a from b.
    assert "during" not in delivered
    assert not state.engaged


def test_install_offset_counts_from_the_install_instant():
    sim, net, _, _ = make_net()
    sim.run(until=5.0)
    seen = []

    class Marker(schedule_module.Fault):
        def apply(self, ctx):
            seen.append(("apply", sim.now))

        def revert(self, ctx):
            seen.append(("revert", sim.now))

    FaultSchedule([FaultEvent(Marker(), start=3.0, duration=1.0)]).install(
        sim, net, random.Random(1), offset=2.0)
    sim.run()
    assert seen == [("apply", 5.0 + 2.0 + 3.0), ("revert", 5.0 + 2.0 + 4.0)]


def test_schedule_validation_and_introspection():
    with pytest.raises(ValueError):
        FaultEvent(Partition(), start=-1.0, duration=5.0)
    with pytest.raises(ValueError):
        FaultEvent(Partition(), start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        Partition(fraction=0.0)
    with pytest.raises(ValueError):
        GrayFailures(fraction=1.5)

    schedule = FaultSchedule(
        [
            FaultEvent(LinkJitter(JitterParams(jitter=0.01)), start=5.0, duration=1.0),
            FaultEvent(Partition(), start=0.0, duration=2.0),
        ]
    )
    assert [(e.start, e.end) for e in schedule.events] == [
        (0.0, 2.0), (5.0, 6.0)]  # sorted by start
    assert "Partition" in schedule.describe()
    assert "LinkJitter" in schedule.describe()


def test_link_jitter_delays_only_inside_its_window():
    sim, net, (a, b), _ = make_net(delay=0.05)
    arrivals = []
    net.register(b, lambda src, msg: arrivals.append((msg, sim.now)))
    state = FaultSchedule([FaultEvent(LinkJitter(JitterParams(jitter=0.05)),
                                      start=1.0, duration=1.0)]).install(
        sim, net, random.Random(3))
    for t in (0.5, 1.2, 1.4, 1.6, 1.8, 2.5):
        sim.schedule(t, net.send, a, b, t)
    sim.run()
    late = {t: round(at - t - 0.05, 9) for t, at in arrivals}
    assert late[0.5] == late[2.5] == 0.0  # no jitter outside the window
    assert all(0.0 <= late[t] <= 0.05 for t in (1.2, 1.4, 1.6, 1.8))
    assert any(late[t] > 0.0 for t in (1.2, 1.4, 1.6, 1.8))
    assert not state.engaged


def test_gray_fraction_targets_registered_addresses_deterministically():
    sim1, net1, _, _ = make_net(n=10, seed=5)
    sim2, net2, _, _ = make_net(n=10, seed=5)
    schedule = FaultSchedule(
        [FaultEvent(GrayFailures(fraction=0.3), start=0.0, duration=1.0)]
    )
    s1 = schedule.install(sim1, net1, random.Random(8))
    s2 = schedule.install(sim2, net2, random.Random(8))
    sim1.run(until=0.5)
    sim2.run(until=0.5)
    assert set(s1._gray) == set(s2._gray)
    assert len(s1._gray) == 3


# ----------------------------------------------------------------------
# Transport counters and loss_rate guard (satellite fixes)
# ----------------------------------------------------------------------
def test_counters_split_sent_lost_delivered():
    sim, net, (a, b), inboxes = make_net(loss=0.0)
    state = with_faults(net)
    state.set_gray(a, GrayFailure.stuck())
    net.send(a, b, "lost-to-fault")
    net.send(b, a, "delivered")
    net.deregister(b)
    net.send(a, b, "dead")  # also dropped by the gray fault or dead address
    sim.run()

    assert net.messages_sent == 3
    assert net.messages_delivered == 1
    assert net.messages_lost == sum(state.drops.values()) == state.drops["gray"]
    assert (
        net.messages_lost + net.messages_delivered + net.messages_dropped_dead
        == net.messages_sent
    )


def test_loss_rate_is_validated_at_construction():
    sim = Simulator()
    topology = UniformDelayTopology(0.05)
    assert Network(sim, topology, random.Random(1), loss_rate=0.5).loss_rate == 0.5
    for rate in (1.0, -0.01, 2.0):
        with pytest.raises(ValueError):
            Network(sim, topology, random.Random(1), loss_rate=rate)


# ----------------------------------------------------------------------
# An idle fault table costs nothing
# ----------------------------------------------------------------------
class CountingFaultState(FaultState):
    """Counts hook calls the way ``perf/tracing.py``'s subclass times them."""

    def __init__(self, sim, rng):
        super().__init__(sim, rng)
        self.hook_calls = 0

    def filter_send(self, src, dst):
        self.hook_calls += 1
        return super().filter_send(src, dst)

    def filter_deliver(self, src, dst):
        self.hook_calls += 1
        return super().filter_deliver(src, dst)

    def adjust_delay(self, src, dst, delay):
        self.hook_calls += 1
        return super().adjust_delay(src, dst, delay)


def faulted_chatter(monkeypatch, seed=7):
    """Six nodes sending to each other every 0.1 s while a partition and a
    burst strike in turn, then 10 quiet seconds -> (network, fault state,
    fault RNG, what the table and its RNG read when the last fault ended,
    each node's inbox)."""
    monkeypatch.setattr(models, "GOOD_MEAN", 0.2)
    sim, net, addrs, inboxes = make_net(n=6, seed=seed)
    rng = random.Random(seed)
    state = FaultSchedule([
        FaultEvent(Partition(0.5), start=1.0, duration=2.0),
        FaultEvent(BurstLoss(GEParams(bad_mean=0.2, loss_bad=0.5)),
                   start=4.0, duration=2.0),
    ]).install(sim, net, rng)
    pairs = random.Random(seed)

    def chatter(i):
        net.send(*pairs.sample(addrs, 2), i)
        if i < 159:
            sim.schedule(0.1, chatter, i + 1)

    sim.schedule(0.0, chatter, 0)
    at_end = []
    sim.schedule(6.0, lambda: at_end.append(
        (getattr(state, "hook_calls", None), rng.getstate())))
    sim.run()
    return net, state, rng, at_end[0], inboxes


def test_idle_fault_table_is_skipped_and_draws_nothing(monkeypatch):
    monkeypatch.setattr(schedule_module, "FaultState", CountingFaultState)
    net, state, rng, (hooks_at_end, rng_at_end), _ = faulted_chatter(monkeypatch)
    assert isinstance(state, CountingFaultState) and not state.engaged
    assert hooks_at_end > 0 and state.drops["partition"] and state.drops["burst"]
    assert net.messages_sent == 160
    # 100 messages before, between and after the faults: not one hook call,
    # not one draw from the fault stream.
    assert state.hook_calls == hooks_at_end
    assert rng.getstate() == rng_at_end


def test_counting_the_hooks_does_not_change_the_run(monkeypatch):
    net, _, _, _, inboxes = faulted_chatter(monkeypatch)
    monkeypatch.setattr(schedule_module, "FaultState", CountingFaultState)
    counted, state, _, _, counted_inboxes = faulted_chatter(monkeypatch)
    assert state.hook_calls > 0
    assert counted_inboxes == inboxes
    assert (counted.sim.events_executed, counted.messages_sent, counted.messages_lost,
            counted.messages_delivered) == (net.sim.events_executed, net.messages_sent,
                                            net.messages_lost, net.messages_delivered)
