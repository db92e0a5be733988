"""``wire_size`` is the codec's frame length, and the collector's bandwidth
view is built on it.

``messages.py`` sizes a message arithmetically from the schema and
``runtime/wire.py`` packs it from the same schema; the two cannot share code
(the metrics collector must not import ``repro.runtime``), so this file is
what ties them: equal on the Hypothesis registry strategy, on the pinned
golden frames, and on every message a churning simulated overlay sends.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings

from repro.metrics.collector import StatsCollector
from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.messages import wire_size
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import NodeDescriptor, random_nodeid
from repro.runtime.wire import decode_frame, encode_frame
from tests.conftest import wire_messages
from tests.test_golden_traces import GOLDEN_DIR, _generate


def desc(i):
    return NodeDescriptor(id=i, addr=i)


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(msg=wire_messages())
def test_wire_size_is_the_encoded_frame_length(msg):
    assert wire_size(msg) == len(encode_frame(msg))


def test_wire_size_matches_the_committed_golden_frames():
    frames = json.loads((GOLDEN_DIR / "wire_frames.json").read_text())["frames"]
    instances = _generate.wire_frame_instances()
    assert len(instances) == len(frames) == 3 * len(m.SCHEMA)
    for name, msg in instances.items():
        assert wire_size(msg) == len(bytes.fromhex(frames[name])), name


def test_every_message_type_has_positive_size():
    for _wire_id, cls, _fields in m.SCHEMA:
        assert wire_size(cls()) == len(encode_frame(cls())) >= 7, cls.__name__


def test_in_process_payload_objects_size_as_absent():
    """The simulator's apps pass Python objects the codec could not carry."""
    absent = wire_size(m.AppDirect(sender=desc(1)))
    for payload in (object(), {"k": 1}, ("put", 3), 1.5, True):
        assert wire_size(m.AppDirect(sender=desc(1), payload=payload)) == absent
        assert wire_size(m.Lookup(payload=payload)) == wire_size(m.Lookup())
    assert wire_size(m.AppDirect(sender=desc(1), payload=b"abc")) == absent + 7


def test_a_class_without_a_declaration_is_a_type_error():
    @dataclasses.dataclass(slots=True)
    class Gossip(m.Ack):  # no subclass fallback: it is not in the schema
        pass

    with pytest.raises(TypeError, match="Gossip"):
        wire_size(Gossip(msg_id=1))
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
    assert wire_size(m.Ack(msg_id=1)) == 4 + 3 + 16
    assert wire_size(m.Heartbeat()) == wire_size(m.StateRequest()) == 4 + 3


def test_sender_adds_descriptor():
    bare = wire_size(m.Heartbeat())
    with_sender = wire_size(m.Heartbeat(sender=desc(1)))
    assert with_sender == bare + 24


def test_tuning_hint_adds_eight_bytes():
    bare = wire_size(m.Heartbeat(sender=desc(1)))
    hinted = wire_size(m.Heartbeat(sender=desc(1), tuning_hint=12.0))
    assert hinted == bare + 8


def test_ls_probe_scales_with_leaf_set():
    small = wire_size(m.LsProbe(sender=desc(1), leaf_set=[desc(2)]))
    big = wire_size(
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
    assert wire_size(reply) == wire_size(empty) + 2 * 4 + 5 * 25


def test_lookup_has_key_and_source_overhead():
    lookup = m.Lookup(sender=desc(1), msg_id=7, key=9)
    # msg_id, key, absent source, sent_at, hops, absent payload, wants_acks,
    # deferrals, on top of an Ack-less bare frame with a sender
    assert wire_size(lookup) == 7 + 24 + 16 + 16 + 1 + 8 + 4 + 1 + 1 + 4
    lookup.source = desc(2)
    assert wire_size(lookup) == 7 + 24 + 16 + 16 + 25 + 8 + 4 + 1 + 1 + 4


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
        assert wire_size(msg) == len(frame), msg
        decoded, size = decode_frame(frame)
        if type(getattr(msg, "failed", None)) is tuple:
            # FailureMemory.advertised's shared snapshot; the wire's lists
            # decode as lists
            decoded.failed = tuple(decoded.failed)
        # dataclass equality: same class, every field equal
        assert (decoded, size) == (msg, len(frame)), msg
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

    start = sim.now
    for i in range(600):
        sim.schedule_at(start + 4.0 * i, lookup)
    for i in range(8):
        sim.schedule_at(start + 10.0 + 250.0 * i, churn)
    sim.run(until=start + 2400.0)
    return stats


def test_simulator_traffic_encodes_sizes_and_decodes_exactly():
    stats = churn_run(_WireChecker())
    assert sum(stats.sent_total.values()) > 5000
    # joins, repair, probing, maintenance and lookups all crossed the codec:
    # everything but app messages, generalized repair and a live RT probe
    unseen = {cls for _, cls, _ in m.SCHEMA} - stats.types_seen
    assert unseen <= {m.AppDirect, m.LeafSetRequest, m.LeafSetReply,
                      m.RtProbeReply}


# ----------------------------------------------------------------------
# The collector's bandwidth view
# ----------------------------------------------------------------------
def test_collector_bandwidth_accounting():
    stats = StatsCollector(window=10.0)
    stats.active.count = 2
    heartbeat = m.Heartbeat(sender=desc(1))
    lookup = m.Lookup(sender=desc(1), msg_id=1, key=2, source=desc(1))
    stats.on_send(heartbeat, 1, 2, 1.0)
    stats.on_send(lookup, 1, 2, 2.0)
    stats.finish(10.0)
    assert stats.active.total_node_seconds == pytest.approx(20.0)
    assert stats.bytes_total == {heartbeat.category: wire_size(heartbeat),
                                 lookup.category: wire_size(lookup)}


def test_bandwidth_zero_without_activity():
    stats = StatsCollector()
    stats.finish(10.0)
    assert stats.active.total_node_seconds == 0.0
    assert sum(stats.bytes_total.values()) == 0
    assert stats.control_traffic_rate() == 0.0
