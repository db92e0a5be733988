"""Protocol tests: joining and the consistency machinery (paper §3.1)."""

import random

from repro.network.simple import UniformDelayTopology
from repro.network.transport import Network
from repro.overlay.utils import build_overlay
from repro.pastry.messages import JoinReply
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_env(seed=1, loss=0.0):
    streams = RngStreams(seed)
    sim = Simulator()
    net = Network(sim, UniformDelayTopology(0.05), streams.stream("net"), loss)
    return sim, net, streams.stream("nodes")


def spawn(sim, net, rng, config=None, **kwargs):
    return MSPastryNode(sim, net, config or PastryConfig(leaf_set_size=8),
                        random_nodeid(rng), rng, **kwargs)


def test_bootstrap_node_activates_immediately():
    sim, net, rng = make_env()
    node = spawn(sim, net, rng)
    node.join(None)
    assert node.active
    assert node.activated_at == sim.now


def test_second_node_joins_via_bootstrap():
    sim, net, rng = make_env()
    a = spawn(sim, net, rng)
    a.join(None)
    b = spawn(sim, net, rng)
    b.join(a.descriptor)
    sim.run(until=30)
    assert b.active
    assert a.id in b.leaf_set
    assert b.id in a.leaf_set


def test_join_latency_is_seconds_not_minutes():
    sim, net, rng = make_env()
    a = spawn(sim, net, rng)
    a.join(None)
    b = spawn(sim, net, rng)
    b.join(a.descriptor)
    sim.run(until=60)
    assert b.active
    assert b.activated_at - b.joined_at < 15.0


def test_sequential_joins_build_consistent_ring():
    sim, net, nodes = build_overlay(16, config=PastryConfig(leaf_set_size=8),
                                    seed=5)
    ordered = sorted(nodes, key=lambda n: n.id)
    for i, node in enumerate(ordered):
        right = ordered[(i + 1) % len(ordered)]
        # each node's right neighbour in id space is in its leaf set
        assert right.id in node.leaf_set, f"node {i} missing right neighbour"


def test_leaf_sets_mutually_consistent(small_overlay):
    _sim, _net, nodes = small_overlay
    by_id = {n.id: n for n in nodes}
    for node in nodes:
        for member in node.leaf_set.members():
            other = by_id[member.id]
            # mutual knowledge: if I track you as a close neighbour you track
            # me (both leaf sets are size-bounded views of the same ring)
            if node.leaf_set.would_admit(other.descriptor):
                continue
            assert node.id in other.leaf_set or not other.leaf_set.would_admit(
                node.descriptor
            )


def test_joiner_does_not_deliver_before_active():
    sim, net, rng = make_env()
    a = spawn(sim, net, rng)
    a.join(None)
    b = spawn(sim, net, rng)
    delivered = []
    b.on_deliver = lambda node, msg: delivered.append(msg)
    b.join(a.descriptor)
    # lookup directly at b's own key while it is still joining
    b.forwarding.receive_root(b.make_lookup(b.id), b.id)
    assert delivered == []  # buffered, not delivered
    sim.run(until=30)
    assert b.active
    assert len(delivered) == 1  # flushed at activation


def test_join_retry_with_fresh_seed_after_seed_crash():
    sim, net, rng = make_env()
    config = PastryConfig(leaf_set_size=8, pns=False)
    a = spawn(sim, net, rng, config)
    a.join(None)
    b = spawn(sim, net, rng, config)
    b.join(a.descriptor)
    sim.run(until=30)
    c = spawn(sim, net, rng, config)
    a.crash()  # seed dies before c joins through it
    c.join(a.descriptor, seed_provider=lambda: b.descriptor)
    # b itself keeps routing towards the dead a until its failure detector
    # confirms the crash (~Tls + To + probe retries), so allow for that.
    sim.run(until=150)
    assert c.active  # retried through the fresh seed


def test_join_gives_up_after_max_attempts():
    sim, net, rng = make_env()
    config = PastryConfig(leaf_set_size=8, pns=False)
    a = spawn(sim, net, rng, config)
    a.join(None)
    a.crash()
    b = spawn(sim, net, rng, config)
    b.join(a.descriptor)  # dead seed, no provider
    sim.run(until=300)
    assert not b.active


def test_on_active_callback_fired_once():
    sim, net, rng = make_env()
    activations = []
    a = spawn(sim, net, rng, on_active=lambda n: activations.append(n))
    a.join(None)
    b = spawn(sim, net, rng, on_active=lambda n: activations.append(n))
    b.join(a.descriptor)
    sim.run(until=60)
    assert activations.count(a) == 1
    assert activations.count(b) == 1


def test_concurrent_joins_all_activate():
    sim, net, rng = make_env(seed=9)
    config = PastryConfig(leaf_set_size=8)
    a = spawn(sim, net, rng, config)
    a.join(None)
    sim.run(until=5)
    joiners = []
    for _ in range(8):  # all join at the same instant
        node = spawn(sim, net, rng, config)
        node.join(a.descriptor)
        joiners.append(node)
    sim.run(until=120)
    assert all(n.active for n in joiners)


def test_routing_state_members_unique():
    sim, net, rng = make_env()
    a = spawn(sim, net, rng)
    a.join(None)
    b = spawn(sim, net, rng)
    b.join(a.descriptor)
    sim.run(until=30)
    members = b.routing_state_members()
    assert len({m.id for m in members}) == len(members)


def test_a_discovery_ending_after_activation_sends_no_join():
    """A join reply the joiner did not ask for activates it mid-discovery;
    when the nearest-neighbour walk then ends, no join request follows."""
    sim, net, nodes = build_overlay(6, config=PastryConfig(leaf_set_size=8))
    rng = random.Random(3)
    joiner = spawn(sim, net, rng)
    joiner.join(nodes[0].descriptor)
    assert joiner.joining.discovery is not None
    joiner._on_message(nodes[0].addr, JoinReply(
        rows={}, leaf_set=[node.descriptor for node in nodes],
        sender=nodes[0].descriptor))
    sim.run(until=sim.now + 1.0)
    assert joiner.active and not joiner.joining.discovery._finished
    sim.run(until=sim.now + 30.0)
    discovery = joiner.joining.discovery
    assert discovery is not None and discovery._finished  # ended; no join
    assert joiner.joining._attempts == 0
