"""Tests for the lossy packet transport."""

import random

import pytest

from repro.network.simple import UniformDelayTopology
from repro.network.transport import Network
from repro.sim.engine import Simulator


class _Stats:
    def __init__(self):
        self.sends = []

    def on_send(self, msg, src, dst, now):
        self.sends.append((msg, src, dst, now))


def make_network(loss=0.0, delay=0.05, seed=1, stats=None):
    sim = Simulator()
    net = Network(sim, UniformDelayTopology(delay), random.Random(seed), loss, stats)
    return sim, net


def test_delivery_after_topology_delay():
    sim, net = make_network(delay=0.2)
    a, b = net.attach(), net.attach()
    inbox = []
    net.register(b, lambda src, msg: inbox.append((sim.now, src, msg)))
    net.send(a, b, "hello")
    sim.run()
    assert inbox == [(0.2, a, "hello")]


def test_messages_to_deregistered_node_dropped():
    sim, net = make_network()
    a, b = net.attach(), net.attach()
    inbox = []
    net.register(b, lambda src, msg: inbox.append(msg))
    net.send(a, b, "m1")
    net.deregister(b)
    sim.run()
    assert inbox == []
    assert net.messages_dropped_dead == 1


def test_crash_mid_flight_drops_message():
    sim, net = make_network(delay=1.0)
    a, b = net.attach(), net.attach()
    inbox = []
    net.register(b, lambda src, msg: inbox.append(msg))
    net.send(a, b, "m")
    sim.schedule(0.5, net.deregister, b)  # crashes while message in flight
    sim.run()
    assert inbox == []


def test_loss_rate_statistics():
    sim, net = make_network(loss=0.3, seed=42)
    a, b = net.attach(), net.attach()
    received = []
    net.register(b, lambda src, msg: received.append(msg))
    n = 2000
    for _ in range(n):
        net.send(a, b, "x")
    sim.run()
    assert net.messages_lost == pytest.approx(0.3 * n, rel=0.15)
    assert len(received) == n - net.messages_lost


def test_zero_loss_delivers_everything():
    sim, net = make_network(loss=0.0)
    a, b = net.attach(), net.attach()
    received = []
    net.register(b, lambda src, msg: received.append(msg))
    for _ in range(100):
        net.send(a, b, "x")
    sim.run()
    assert len(received) == 100


def test_echo_ring_without_collector_or_faults_delivers_every_send():
    """The warm-up configuration — no loss, no fault table, no collector —
    with sends issued from inside delivery callbacks, as nodes do."""
    n_nodes, target = 16, 4_000
    sim, net = make_network()
    assert net.stats is None and net.faults is None
    addrs = [net.attach() for _ in range(n_nodes)]
    received = [0]

    def make_handler(me):
        def handler(src, msg):
            assert src == addrs[me - 1] and msg == ("ping", (me - 1) % n_nodes)
            received[0] += 1
            if received[0] + n_nodes <= target:
                net.send(addrs[me], addrs[(me + 1) % n_nodes], ("ping", me))
        return handler

    for i in range(n_nodes):
        net.register(addrs[i], make_handler(i))
    for i in range(n_nodes):
        net.send(addrs[i], addrs[(i + 1) % n_nodes], ("ping", i))
    sim.run()
    assert net.messages_sent == net.messages_delivered == received[0] == target
    assert net.messages_lost == 0 and net.messages_dropped_dead == 0
    assert sim.now == pytest.approx(0.05 * target / n_nodes)


def test_stats_hook_sees_all_sends_including_lost():
    stats = _Stats()
    sim, net = make_network(loss=0.5, stats=stats, seed=3)
    a, b = net.attach(), net.attach()
    net.register(b, lambda src, msg: None)
    for _ in range(50):
        net.send(a, b, "m")
    sim.run()
    assert len(stats.sends) == 50


def test_invalid_loss_rate_rejected():
    with pytest.raises(ValueError):
        make_network(loss=1.0)
    with pytest.raises(ValueError):
        make_network(loss=-0.1)


def test_is_registered():
    _sim, net = make_network()
    a = net.attach()
    assert not net.is_registered(a)
    net.register(a, lambda src, msg: None)
    assert net.is_registered(a)
    net.deregister(a)
    assert not net.is_registered(a)
