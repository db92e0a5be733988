"""Edge-case tests: introspection, ack manager corners, prox cancellation."""

import random

from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.nodeid import random_nodeid


def overlay(seed=1101, **cfg):
    config = PastryConfig(leaf_set_size=8, **cfg)
    return build_overlay(12, config=config, seed=seed)


# ----------------------------------------------------------------------
# debug_state
# ----------------------------------------------------------------------
def test_debug_state_live_node():
    sim, _net, nodes = overlay()
    state = nodes[0].debug_state()
    assert state["active"] and not state["crashed"]
    assert state["leaf_set_size"] > 0
    assert state["routing_table_entries"] >= 0
    assert state["rt_probe_period"] > 0
    assert state["n_estimate"] >= 1.0


def test_debug_state_after_crash():
    sim, _net, nodes = overlay(seed=1103)
    victim = nodes[3]
    victim.crash()
    state = victim.debug_state()
    assert state["crashed"] and not state["active"]
    assert state["probing"] == 0
    assert state["acks_in_flight"] == 0
    assert state["buffered"] == 0


# ----------------------------------------------------------------------
# Ack manager corners
# ----------------------------------------------------------------------
def test_ack_for_unknown_message_ignored():
    sim, _net, nodes = overlay(seed=1105)
    node = nodes[0]
    node.acks.on_ack(5, None, m.Ack(msg_id=999999))  # must not raise
    assert node.acks.in_flight == 0


def test_unknown_sender_ack_does_not_release():
    sim, _net, nodes = overlay(seed=1107)
    src = nodes[0]
    rng = random.Random(1)
    key = random_nodeid(rng)
    hop = src.forwarding.next_hop(key, frozenset())
    while hop is None:
        key = random_nodeid(rng)
        hop = src.forwarding.next_hop(key, frozenset())
    msg = src.make_lookup(key)
    src.acks.track(msg, hop)
    src.acks.on_ack(hop.addr + 12345, None, m.Ack(msg_id=msg.msg_id))  # wrong source
    assert src.acks.in_flight == 1
    src.acks.on_ack(hop.addr, None, m.Ack(msg_id=msg.msg_id))
    assert src.acks.in_flight == 0


# ----------------------------------------------------------------------
# Proximity manager corners
# ----------------------------------------------------------------------
def test_prox_cancel_all_stops_measurements():
    sim, net, nodes = overlay(seed=1109)
    a, b = nodes[0], nodes[1]
    a.prox.proximity.pop(b.id, None)
    results = []
    a.prox.measure(b.descriptor, results.append)
    a.prox.cancel_all()
    sim.run(until=sim.now + 20)
    assert results == []  # callback never fired


def test_prox_forget_clears_cache_and_inflight():
    sim, _net, nodes = overlay(seed=1111)
    a, b = nodes[0], nodes[1]
    a.prox.record(b.id, 0.1, b.addr)
    a.prox.forget(b.id)
    assert b.id not in a.prox.proximity
    assert a.prox.proximity_of(b.descriptor) == float("inf")


def test_duplicate_distance_probe_reply_ignored():
    sim, _net, nodes = overlay(seed=1113)
    a, b = nodes[0], nodes[1]
    # A reply for a measurement that does not exist must be a no-op.
    a.prox.on_probe_reply(b.addr, b.descriptor, m.DistanceProbeReply(seq=42))
    assert b.id not in a.prox._measuring


# ----------------------------------------------------------------------
# Identity edges
# ----------------------------------------------------------------------
def test_node_ignores_messages_after_crash():
    sim, net, nodes = overlay(seed=1115)
    victim, peer = nodes[0], nodes[1]
    victim.crash()
    before = net.messages_sent
    victim._on_message(peer.addr, m.RtProbe(sender=peer.descriptor))
    assert net.messages_sent == before  # no reply sent


def test_send_to_self_descriptor_loops_back():
    sim, net, nodes = overlay(seed=1117)
    node = nodes[0]
    got = []
    node.on_app_direct = lambda n, msg: got.append(msg)
    node.send(node.descriptor, m.AppDirect(payload="self"))
    sim.run(until=sim.now + 1)
    assert len(got) == 1


def test_leave_is_crash_alias():
    sim, _net, nodes = overlay(seed=1119)
    node = nodes[2]
    node.leave()
    assert node.crashed
