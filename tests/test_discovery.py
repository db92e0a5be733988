"""Tests for nearest-neighbour seed discovery (paper §2 / §4.2)."""

import random

from repro.overlay.utils import build_overlay
from repro.pastry.config import PastryConfig
from repro.pastry.join import SeedDiscovery
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid
from tests.euclidean import EuclideanTopology


def euclid_overlay(n=24, seed=401):
    topology = EuclideanTopology(side=1.0, delay_per_unit=0.2)
    sim, net, nodes = build_overlay(
        n, config=PastryConfig(leaf_set_size=8), topology=topology, seed=seed
    )
    return sim, net, nodes, topology


def test_discovery_finds_node_closer_than_random_start():
    sim, net, nodes, topo = euclid_overlay()
    rng = random.Random(1)
    joiner = MSPastryNode(
        sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
    )
    start = nodes[0]
    found = []
    discovery = SeedDiscovery(
        joiner.send, joiner.prox.measure, sim, joiner.config.probe_timeout,
        joiner.id, start.descriptor, found.append)
    joiner.joining.discovery = discovery  # wire StateReply dispatch
    discovery.start()
    sim.run(until=sim.now + 60)
    assert len(found) == 1
    start_rtt = topo.proximity(joiner.addr, start.addr)
    found_rtt = topo.proximity(joiner.addr, found[0].addr)
    assert found_rtt <= start_rtt + 1e-9  # never worse than the start


def test_discovery_quality_near_optimal_on_average():
    sim, net, nodes, topo = euclid_overlay(seed=403)
    rng = random.Random(2)
    vs_random = []
    for trial in range(8):
        joiner = MSPastryNode(
            sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
        )
        start = nodes[trial % len(nodes)]
        found = []
        discovery = SeedDiscovery(
            joiner.send, joiner.prox.measure, sim, joiner.config.probe_timeout,
            joiner.id, start.descriptor, found.append)
        joiner.joining.discovery = discovery
        discovery.start()
        sim.run(until=sim.now + 60)
        got = topo.proximity(joiner.addr, found[0].addr)
        mean_all = sum(
            topo.proximity(joiner.addr, n.addr) for n in nodes
        ) / len(nodes)
        vs_random.append(got / mean_all)
        joiner.crash()
    # The walk clearly beats picking a random node: median well under 1.
    assert sorted(vs_random)[len(vs_random) // 2] < 0.7


def test_discovery_handles_dead_start_by_timeout():
    sim, net, nodes, _topo = euclid_overlay(seed=405)
    rng = random.Random(3)
    joiner = MSPastryNode(
        sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
    )
    victim = nodes[3]
    victim.crash()
    found = []
    discovery = SeedDiscovery(
        joiner.send, joiner.prox.measure, sim, joiner.config.probe_timeout,
        joiner.id, victim.descriptor, found.append)
    joiner.joining.discovery = discovery
    discovery.start()
    sim.run(until=sim.now + 60)
    assert found == [victim.descriptor]  # falls back to the start node


def test_discovery_cancel_prevents_callback():
    sim, net, nodes, _topo = euclid_overlay(seed=407)
    rng = random.Random(4)
    joiner = MSPastryNode(
        sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
    )
    found = []
    discovery = SeedDiscovery(
        joiner.send, joiner.prox.measure, sim, joiner.config.probe_timeout,
        joiner.id, nodes[0].descriptor, found.append)
    joiner.joining.discovery = discovery
    discovery.start()
    discovery.cancel()
    sim.run(until=sim.now + 60)
    assert found == []


def test_join_with_discovery_yields_close_first_hop():
    """End to end: PNS join produces row-0 entries close to the joiner."""
    sim, net, nodes, topo = euclid_overlay(n=30, seed=409)
    rng = random.Random(5)
    joiner = MSPastryNode(
        sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
    )
    joiner.join(nodes[0].descriptor)
    sim.run(until=sim.now + 90)
    assert joiner.active
    entries = joiner.routing_table.row_entries(0)
    if entries:
        mean_entry = sum(
            topo.proximity(joiner.addr, e.addr) for e in entries
        ) / len(entries)
        mean_all = sum(
            topo.proximity(joiner.addr, n.addr) for n in nodes
        ) / len(nodes)
        assert mean_entry < mean_all * 1.2  # at least as good as random
