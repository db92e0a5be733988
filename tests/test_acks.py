"""Protocol tests: per-hop acks and aggressive retransmission (paper §3.2)."""

import random

from repro.overlay.utils import build_overlay
from repro.pastry import acks
from repro.pastry import messages as m
from repro.pastry.acks import HopAckManager
from repro.pastry.config import PastryConfig
from repro.pastry.nodeid import NodeDescriptor, random_nodeid, ring_distance
from repro.pastry.rto import RtoTable
from repro.sim.engine import Simulator


def desc(i):
    return NodeDescriptor(id=i, addr=i)


def make_manager(sim, **overrides):
    calls = {"reroute": [], "suspect": [], "drop": []}

    def reroute(msg, excluded):
        calls["reroute"].append((msg, set(excluded)))
        return overrides.get("reroute_result", False)

    manager = HopAckManager(
        sim,
        RtoTable(initial_rto=0.5, rto_min=0.05, variance_weight=2.0),
        reroute=reroute,
        suspect=lambda d: calls["suspect"].append(d),
        on_drop=lambda msg: calls["drop"].append(msg),
    )
    return manager, calls


def lookup(msg_id=1):
    return m.Lookup(msg_id=msg_id, key=123, source=desc(99), sent_at=0.0)


def test_ack_cancels_timer_and_samples_rtt():
    sim = Simulator()
    manager, calls = make_manager(sim)
    msg = lookup()
    manager.track(msg, desc(5))
    sim.run(until=0.2)
    manager.on_ack(5, None, m.Ack(msg_id=msg.msg_id))
    sim.run(until=10)
    assert calls["suspect"] == []
    assert manager.in_flight == 0
    assert manager._rto.rto(5) < 0.5  # sampled a 0.2s RTT


def test_stale_ack_from_old_hop_ignored():
    sim = Simulator()
    manager, calls = make_manager(sim, reroute_result=True)
    msg = lookup()
    manager.track(msg, desc(5))
    sim.run(until=1.0)  # timer fires, suspect 5, reroute
    assert calls["suspect"] and calls["suspect"][0].id == 5
    manager.track(msg, desc(6))  # rerouted to 6
    manager.on_ack(5, None, m.Ack(msg_id=msg.msg_id))  # late ack from the abandoned hop
    assert manager.in_flight == 1  # still waiting on 6
    manager.on_ack(6, None, m.Ack(msg_id=msg.msg_id))
    assert manager.in_flight == 0


def test_timeout_suspects_and_reroutes_with_exclusion():
    sim = Simulator()
    manager, calls = make_manager(sim, reroute_result=True)
    msg = lookup()
    manager.track(msg, desc(5))
    sim.run(until=2.0)
    assert [d.id for d in calls["suspect"]] == [5]
    assert calls["reroute"][0][1] == {5}


def test_exclusions_accumulate_across_reroutes():
    sim = Simulator()
    manager, calls = make_manager(sim, reroute_result=True)
    msg = lookup()
    manager.track(msg, desc(5))
    sim.run(until=1.0)
    manager.track(msg, desc(6))
    sim.run(until=3.0)
    assert calls["reroute"][-1][1] == {5, 6}


def test_drop_after_max_reroutes(monkeypatch):
    monkeypatch.setattr(acks, "MAX_REROUTES", 2)
    sim = Simulator()
    manager, calls = make_manager(sim, reroute_result=True)
    msg = lookup()
    manager.track(msg, desc(1))
    sim.run(until=1.0)
    manager.track(msg, desc(2))
    sim.run(until=3.0)
    manager.track(msg, desc(3))
    sim.run(until=8.0)
    assert calls["drop"] == [msg]
    assert manager.in_flight == 0


def test_karn_rule_no_sample_after_retransmit():
    sim = Simulator()
    manager, _calls = make_manager(sim, reroute_result=True)
    msg = lookup()
    manager.track(msg, desc(5))
    sim.run(until=1.0)  # timeout
    manager.track(msg, desc(6))
    rto_before = manager._rto.rto(6)
    sim.run(until=1.05)
    manager.on_ack(6, None, m.Ack(msg_id=msg.msg_id))
    assert manager._rto.rto(6) == rto_before  # no sample on rerouted send


def test_cancel_all_clears_state():
    sim = Simulator()
    manager, calls = make_manager(sim)
    manager.track(lookup(1), desc(5))
    manager.track(lookup(2), desc(6))
    manager.cancel_all()
    assert manager.in_flight == 0
    sim.run(until=10)
    assert calls["suspect"] == []  # timers cancelled


# ----------------------------------------------------------------------
# End-to-end: acks recover lookups across crashes and link loss
# ----------------------------------------------------------------------
def test_lookup_survives_next_hop_crash():
    config = PastryConfig(leaf_set_size=8)
    sim, net, nodes = build_overlay(16, config=config, seed=41)
    rng = random.Random(1)
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append((n, msg))
    # Choose a lookup whose first hop we then crash mid-flight.
    src = nodes[0]
    key = random_nodeid(rng)
    hop = src.forwarding.next_hop(key, frozenset())
    while hop is None:
        key = random_nodeid(rng)
        hop = src.forwarding.next_hop(key, frozenset())
    victim = next(n for n in nodes if n.id == hop.id)
    victim.crash()
    src.lookup(key)  # forwarded to the already-dead hop
    sim.run(until=sim.now + 60)
    assert any(True for _n, msg in delivered)
    node, msg = delivered[-1]
    alive = [n for n in nodes if not n.crashed]
    best = min(alive, key=lambda n: (ring_distance(n.id, msg.key), n.id))
    assert node.id == best.id


def test_lookups_reliable_under_link_loss():
    config = PastryConfig(leaf_set_size=8)
    sim, net, nodes = build_overlay(16, config=config, seed=43, loss_rate=0.05)
    rng = random.Random(2)
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append(msg)
    sent = 0
    for _ in range(60):
        rng.choice(nodes).lookup(random_nodeid(rng))
        sent += 1
    sim.run(until=sim.now + 120)
    unique = {msg.msg_id for msg in delivered}
    assert len(unique) >= sent - 1  # at most one casualty at 5% loss


def test_acks_disabled_config_drops_on_crash():
    config = PastryConfig(leaf_set_size=8, per_hop_acks=False)
    sim, net, nodes = build_overlay(16, config=config, seed=47)
    rng = random.Random(3)
    src = nodes[0]
    key = random_nodeid(rng)
    hop = src.forwarding.next_hop(key, frozenset())
    while hop is None:
        key = random_nodeid(rng)
        hop = src.forwarding.next_hop(key, frozenset())
    victim = next(n for n in nodes if n.id == hop.id)
    victim.crash()
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append(msg)
    src.lookup(key)
    sim.run(until=sim.now + 30)
    assert delivered == []  # no acks -> no recovery
