"""A frame's size is ``len(encode_frame(msg))``: the codec is the one
description of the bytes.  What each part of the format costs, relative to
the rest, and the codec round trip of every message a churning simulated
overlay sends.
"""

import dataclasses
import random

import pytest

from repro.metrics.collector import StatsCollector
from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import NodeDescriptor, random_nodeid
from repro.runtime.wire import WireError, decode_frame, encode_frame


def desc(i):
    return NodeDescriptor(id=i, addr=i)


def size(msg):
    return len(encode_frame(msg))


def test_every_message_type_has_positive_size():
    for _wire_id, cls, _fields in m.SCHEMA:
        assert size(cls()) >= 7, cls.__name__


def test_a_class_without_a_declaration_is_a_type_error():
    @dataclasses.dataclass(slots=True)
    class Gossip(m.Ack):  # no subclass fallback: it is not in the schema
        pass

    with pytest.raises(WireError, match="Gossip"):
        encode_frame(Gossip(msg_id=1))
    with pytest.raises(TypeError, match="wire_id"):  # inherited ids do not count
        m._declared(Gossip)

    @dataclasses.dataclass(slots=True)
    class Untyped(m.Message):
        wire_id = 99
        blob: int = 0  # not declared through ``wire(kind, ...)``

    with pytest.raises(TypeError, match="blob"):
        m._declared(Untyped)


# ----------------------------------------------------------------------
# The format's numbers, relative to one another
# ----------------------------------------------------------------------
def test_bare_message_is_header_sized():
    # u32 length prefix | version, type id, flags | msg_id as a u128
    assert size(m.Ack(msg_id=1)) == 4 + 3 + 16
    assert size(m.Heartbeat()) == size(m.StateRequest()) == 4 + 3


def test_sender_adds_descriptor():
    bare = size(m.Heartbeat())
    with_sender = size(m.Heartbeat(sender=desc(1)))
    assert with_sender == bare + 24


def test_tuning_hint_adds_eight_bytes():
    bare = size(m.Heartbeat(sender=desc(1)))
    hinted = size(m.Heartbeat(sender=desc(1), tuning_hint=12.0))
    assert hinted == bare + 8


def test_ls_probe_scales_with_leaf_set():
    small = size(m.LsProbe(sender=desc(1), leaf_set=[desc(2)]))
    big = size(
        m.LsProbe(sender=desc(1), leaf_set=[desc(i) for i in range(2, 18)])
    )
    assert big == small + 15 * 25


def test_join_reply_counts_rows_and_leafset():
    reply = m.JoinReply(
        sender=desc(1),
        rows={0: [desc(2), desc(3)], 1: [desc(4)]},
        leaf_set=[desc(5), desc(6)],
    )
    empty = m.JoinReply(sender=desc(1))
    # two rows, each an index and a count, and five listed descriptors
    assert size(reply) == size(empty) + 2 * 4 + 5 * 25


def test_lookup_has_key_and_source_overhead():
    lookup = m.Lookup(sender=desc(1), msg_id=7, key=9)
    # msg_id, key, absent source, sent_at, hops, absent payload, wants_acks,
    # deferrals, on top of an Ack-less bare frame with a sender
    assert size(lookup) == 7 + 24 + 16 + 16 + 1 + 8 + 4 + 1 + 1 + 4
    lookup.source = desc(2)
    assert size(lookup) == 7 + 24 + 16 + 16 + 25 + 8 + 4 + 1 + 1 + 4


# ----------------------------------------------------------------------
# Every message the simulator actually sends
# ----------------------------------------------------------------------
class _WireChecker(StatsCollector):
    """A ``Network.stats`` that puts each sent message through the codec."""

    def __init__(self):
        super().__init__()
        self.types_seen = set()

    def on_send(self, msg, src, dst, now):
        frame = encode_frame(msg)
        decoded, end = decode_frame(frame)
        if type(getattr(msg, "failed", None)) is tuple:
            # FailureMemory.advertised's shared snapshot; the wire's lists
            # decode as lists
            decoded.failed = tuple(decoded.failed)
        # dataclass equality: same class, every field equal
        assert (decoded, end) == (msg, len(frame)), msg
        self.types_seen.add(type(msg))
        super().on_send(msg, src, dst, now)


def churn_run(stats, seed=22):
    """A seeded 16-node overlay under ``stats`` for 40 simulated minutes: 600
    lookups, eight crashes and eight protocol joins.  Returns the collector."""
    config = PastryConfig(leaf_set_size=8)
    sim, network, nodes = build_overlay(16, config=config, seed=seed)
    network.stats = stats
    stats.t0 = sim.now
    rng = random.Random(seed)

    def lookup():
        alive = [node for node in nodes if node.active]
        rng.choice(alive).lookup(random_nodeid(rng))

    def churn():
        alive = [node for node in nodes if node.active]
        rng.choice(alive[1:]).crash()
        joiner = MSPastryNode(sim, network, config, random_nodeid(rng), rng)
        nodes.append(joiner)
        joiner.join(nodes[0].descriptor)

    for i in range(600):
        sim.schedule(4.0 * i, lookup)
    for i in range(8):
        sim.schedule(10.0 + 250.0 * i, churn)
    sim.run(until=sim.now + 2400.0)
    return stats


def test_simulator_traffic_encodes_sizes_and_decodes_exactly():
    stats = churn_run(_WireChecker())
    assert stats.sent_count(*stats.sent_windowed) > 5000
    # joins, repair, probing, maintenance and lookups all crossed the codec:
    # everything but app messages, generalized repair and a live RT probe
    unseen = {cls for _, cls, _ in m.SCHEMA} - stats.types_seen
    assert unseen <= {m.AppDirect, m.LeafSetRequest, m.LeafSetReply,
                      m.RtProbeReply}


def test_bandwidth_zero_without_activity():
    stats = StatsCollector()
    stats.finish(10.0)
    assert stats.active.total_node_seconds == 0.0
    assert stats.sent_count(*stats.sent_windowed) == 0
    assert stats.control_traffic_rate() == 0.0
