"""Fine-grained tests of node internals: passive repair, slot queries,
buffering limits, announcements, and suppression machinery."""

import random

from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.forwarding import MAX_BUFFERED
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import digit, random_nodeid, shared_prefix_length


def overlay(seed=1001, n=16, **cfg):
    config = PastryConfig(leaf_set_size=8, **cfg)
    return build_overlay(n, config=config, seed=seed)


# ----------------------------------------------------------------------
# Slot requests (passive routing-table repair)
# ----------------------------------------------------------------------
def test_slot_request_finds_matching_entry():
    sim, _net, nodes = overlay()
    a, b = nodes[0], nodes[1]
    # Ask b for an entry for one of a's occupied slots: b should reply with
    # a node matching a's prefix constraints if it knows one.
    target = next(iter(nodes[2:])).descriptor
    slot = a.routing_table.slot_for(target.id)
    entry = b.forwarding.find_slot_entry(a.id, slot[0], slot[1])
    if entry is not None:
        assert shared_prefix_length(entry.id, a.id, 4) >= slot[0]
        assert digit(entry.id, slot[0], 4) == slot[1]


def test_slot_reply_probes_before_insert():
    sim, _net, nodes = overlay(seed=1003)
    a = nodes[0]
    candidate = next(
        n for n in nodes if n.id != a.id and n.id not in a.routing_table
    )
    slot = a.routing_table.slot_for(candidate.id)
    a.forwarding.on_slot_reply(
        candidate.addr, candidate.descriptor,
        m.SlotReply(row=slot[0], col=slot[1], entry=candidate.descriptor))
    # Not inserted synchronously (repair rule: direct message first)...
    sim.run(until=sim.now + 15)
    # ...but after the distance probe exchange it lands in the table.
    assert candidate.id in a.routing_table or candidate.id in a.prox.proximity


def test_slot_reply_ignores_self_and_failed():
    sim, net, nodes = overlay(seed=1005)
    a, b = nodes[0], nodes[1]
    a.failures.failed[b.id] = b.descriptor
    slot = a.routing_table.slot_for(b.id)
    a.routing_table.remove(b.id)
    before = net.messages_sent
    a.forwarding.on_slot_reply(
        b.addr, b.descriptor,
        m.SlotReply(row=slot[0], col=slot[1], entry=b.descriptor))
    # The failed entry is ignored outright: no probe, no insert.
    assert net.messages_sent == before
    assert b.id not in a.routing_table
    del a.failures.failed[b.id]  # restore the shared state


# ----------------------------------------------------------------------
# Buffering
# ----------------------------------------------------------------------
def test_buffer_capped():
    sim, net, nodes = overlay(seed=1007)
    rng = random.Random(1)
    joiner = MSPastryNode(
        sim, net, PastryConfig(leaf_set_size=8), random_nodeid(rng), rng
    )
    for i in range(MAX_BUFFERED + 50):
        joiner.forwarding.buffer(joiner.make_lookup(random_nodeid(rng)))
    assert len(joiner.forwarding.buffered) == MAX_BUFFERED


def test_buffered_join_request_served_after_activation():
    sim, net, nodes = overlay(seed=1009, n=8)
    rng = random.Random(2)
    config = PastryConfig(leaf_set_size=8, nearest_neighbour_join=False)
    # Two joiners: the second's join request lands (as root) on the first
    # while the first is still joining -> buffered, then served.
    first = MSPastryNode(sim, net, config, random_nodeid(rng), rng)
    first.join(nodes[0].descriptor)
    second = MSPastryNode(sim, net, config, (first.id + 1) % (1 << 128), rng)
    second.join(nodes[0].descriptor)
    sim.run(until=sim.now + 90)
    assert first.active and second.active


# ----------------------------------------------------------------------
# Row announcements
# ----------------------------------------------------------------------
def test_announce_rows_targets_row_members():
    sim, net, nodes = overlay(seed=1011)
    a = nodes[0]
    sent = []
    orig_send = a.send

    def spy(dest, msg):
        if isinstance(msg, m.RowAnnounce):
            sent.append((dest, msg))
        orig_send(dest, msg)

    a.send = spy
    a.prox.announce_rows()
    assert sent
    for dest, msg in sent:
        row_ids = {d.id for d in a.routing_table.row_entries(msg.row)}
        assert dest.id in row_ids
        assert {d.id for d in msg.entries} == row_ids


# ----------------------------------------------------------------------
# Suppression bookkeeping
# ----------------------------------------------------------------------
def test_any_message_updates_last_heard_and_clears_suspicion():
    sim, _net, nodes = overlay(seed=1013)
    a, b = nodes[0], nodes[1]
    a.suspected.add(b.id)
    a._on_message(b.addr, m.Heartbeat(sender=b.descriptor))
    assert b.id not in a.suspected
    assert a.last_heard[b.id] == sim.now


def test_rt_probe_suppressed_when_recently_heard():
    sim, _net, nodes = overlay(seed=1015)
    a = nodes[0]
    entries = a.routing_table.entries()
    if not entries:
        return
    for desc in entries:
        a.last_heard[desc.id] = sim.now  # everyone fresh
    before = a.network.messages_sent
    a.liveness._last_rt_scan = sim.now
    a.liveness.rt_scan()
    # No probes were necessary (the scan only rescheduled itself).
    assert a.network.messages_sent == before
    a.liveness._rt_scan_handle.cancel()


def test_rt_probe_sent_for_silent_entry():
    sim, _net, nodes = overlay(seed=1017)
    a = nodes[0]
    entries = a.routing_table.entries()
    if not entries:
        return
    silent = entries[0]
    a.last_heard.pop(silent.id, None)
    before = a.network.messages_sent
    a.liveness.rt_scan()
    assert a.network.messages_sent > before
    assert silent.id in a.rt_probing.pending
    a.liveness._rt_scan_handle.cancel()
    sim.run(until=sim.now + 15)  # let the probe resolve


# ----------------------------------------------------------------------
# Tuning hints
# ----------------------------------------------------------------------
def test_tuning_hints_piggybacked_and_recorded():
    sim, _net, nodes = overlay(seed=1019)
    a, b = nodes[0], nodes[1]
    a.tuner.local_period = 123.0
    a.send(b.descriptor, m.Heartbeat())
    sim.run(until=sim.now + 1)
    assert b.tuner.hints.get(a.id) == 123.0


def test_hints_absent_when_self_tuning_disabled():
    sim, net, nodes = overlay(seed=1021, self_tuning=False)
    a, b = nodes[0], nodes[1]
    a.send(b.descriptor, m.Heartbeat())
    sim.run(until=sim.now + 1)
    assert a.id not in b.tuner.hints


# ----------------------------------------------------------------------
# StateRequest
# ----------------------------------------------------------------------
def test_state_request_answered_with_routing_state():
    sim, net, nodes = overlay(seed=1023)
    a, b = nodes[0], nodes[1]
    replies = []
    orig = b._on_message

    def spy(src, msg):
        if isinstance(msg, m.StateReply):
            replies.append(msg)
        orig(src, msg)

    # The network holds the originally registered bound method; re-register.
    net.register(b.addr, spy)
    b.send(a.descriptor, m.StateRequest())
    sim.run(until=sim.now + 2)
    net.register(b.addr, orig)
    assert replies
    expected = {d.id for d in a.routing_state_members()}
    assert {d.id for d in replies[0].nodes} == expected
