"""Wire-codec properties: every message type round-trips byte-identically.

The codec's contract (``repro.runtime.wire``) is that encoding is a pure
function of the message value and that ``decode`` inverts it exactly:
``encode(decode(encode(msg))) == encode(msg)`` for every message the
protocol can send.  hypothesis drives the whole registry through that
property; targeted tests pin the boundary values (extreme nodeIds, empty
and oversized lists) and the strictness guarantees (unknown ids, trailing
bytes, truncation).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry import messages as m
from repro.pastry.nodeid import intern_descriptor
from repro.runtime import wire
from repro.runtime.wire import (
    WireError,
    decode,
    decode_frame,
    encode,
    encode_frame,
)
from tests.conftest import MAX_U64, MAX_U128, wire_messages


@settings(max_examples=300, deadline=None)
@given(msg=wire_messages())
def test_roundtrip_is_byte_identical(msg):
    data = encode(msg)
    back = decode(data)
    assert type(back) is type(msg)
    assert encode(back) == data
    for field in dataclasses.fields(msg):
        assert getattr(back, field.name) == getattr(msg, field.name), \
            field.name


@settings(max_examples=100, deadline=None)
@given(msg=wire_messages())
def test_frame_roundtrip(msg):
    frame = encode_frame(msg)
    back, end = decode_frame(frame)
    assert end == len(frame)
    assert encode(back) == encode(msg)


@settings(max_examples=50, deadline=None)
@given(msgs=st.lists(wire_messages(), min_size=1, max_size=5))
def test_concatenated_frames_parse_in_order(msgs):
    stream = b"".join(encode_frame(msg) for msg in msgs)
    off = 0
    for msg in msgs:
        back, off = decode_frame(stream, off)
        assert encode(back) == encode(msg)
    assert off == len(stream)


# ----------------------------------------------------------------------
# Boundary values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("node_id", [0, 1, MAX_U128 - 1, MAX_U128])
def test_boundary_node_ids(node_id):
    desc = intern_descriptor(node_id, 0)
    msg = m.Lookup(msg_id=node_id, key=node_id, source=desc, sent_at=0.0,
                   sender=desc)
    back = decode(encode(msg))
    assert back.key == node_id
    assert back.msg_id == node_id
    assert back.source.id == node_id


def test_empty_leaf_set_payloads():
    msg = m.LsProbe(leaf_set=[], failed=[])
    back = decode(encode(msg))
    assert back.leaf_set == [] and back.failed == []
    reply = m.StateReply(nodes=[])
    assert decode(encode(reply)).nodes == []


def test_oversized_leaf_set_rejected():
    big = [intern_descriptor(i, i) for i in range(0x10000)]
    with pytest.raises(WireError, match="too long"):
        encode(m.StateReply(nodes=big))


def test_msg_id_wider_than_64_bits():
    # A packed UDP address is up to 48 bits, so msg_id = (addr << 24) | seq
    # spans up to 72 bits — the codec must carry it whole.
    wide = (0xFFFF_FFFF_FFFF << 24) | 0x123456
    assert wide > MAX_U64
    back = decode(encode(m.Ack(msg_id=wide)))
    assert back.msg_id == wide


# ----------------------------------------------------------------------
# Strictness and encodability errors
# ----------------------------------------------------------------------
def test_unknown_type_id_rejected():
    data = bytearray(encode(m.Heartbeat()))
    data[1] = 0xEE
    with pytest.raises(WireError, match="unknown message type"):
        decode(bytes(data))


def test_wrong_version_rejected():
    data = bytearray(encode(m.Heartbeat()))
    data[0] = 99
    with pytest.raises(WireError, match="version"):
        decode(bytes(data))


def test_unknown_flag_bits_rejected():
    data = bytearray(encode(m.Heartbeat()))
    data[2] |= 0x80
    with pytest.raises(WireError, match="flag"):
        decode(bytes(data))


def test_trailing_bytes_rejected():
    with pytest.raises(WireError, match="trailing"):
        decode(encode(m.Heartbeat()) + b"\x00")


def test_truncation_rejected_at_every_length():
    data = encode(m.Lookup(msg_id=1, key=2,
                           source=intern_descriptor(3, 4), sent_at=5.0,
                           payload=b"abcdef"))
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode(data[:cut])


def test_unencodable_payload_rejected():
    with pytest.raises(WireError, match="payload"):
        encode(m.Lookup(msg_id=1, key=2, source=None, sent_at=0.0,
                        payload=object()))


def test_negative_field_rejected():
    with pytest.raises(WireError):
        encode(m.RowRequest(row=-1))


# ----------------------------------------------------------------------
# Registry completeness
# ----------------------------------------------------------------------
def test_registry_is_complete():
    """Every concrete message type must have a codec entry."""
    concrete = {
        obj for name, obj in vars(m).items()
        if isinstance(obj, type) and issubclass(obj, m.Message)
        and obj is not m.Message
    }
    assert concrete == {cls for _, cls, _ in m.SCHEMA}


def test_registry_ids_are_unique_and_stable():
    ids_seen = [tid for tid, _, _ in wire._REGISTRY]
    assert len(ids_seen) == len(set(ids_seen))
    # the first assignments are a wire contract — never renumber
    type_to_id = {cls: tid for tid, cls, _ in wire._REGISTRY}
    assert type_to_id[m.JoinRequest] == 1
    assert type_to_id[m.Lookup] == 18
    assert type_to_id[m.Ack] == 19


def test_committed_wire_baseline_matches_registry():
    """The committed wire-id pin is the drift tripwire: any renumbering
    or removal in ``wire._REGISTRY`` must show up here before it ships."""
    import json
    from pathlib import Path

    baseline_path = Path(__file__).resolve().parent / "golden" / "wire_ids.json"
    hint = ("; wire ids are append-only — fix wire._REGISTRY, and append "
            "the new id to tests/golden/wire_ids.json by hand — never "
            "regenerate")
    doc = json.loads(baseline_path.read_text())
    assert doc["schema"] == 1
    baseline = {int(tid): name for tid, name in doc["entries"].items()}
    live = {tid: f"{cls.__module__}.{cls.__qualname__}"
            for tid, cls, _ in wire._REGISTRY}
    # append-only: every baselined id must still exist with the same class
    for tid, name in baseline.items():
        assert tid in live, f"wire id {tid} ({name}) was removed{hint}"
        assert live[tid] == name, \
            f"wire id {tid} reassigned: {name} -> {live[tid]}{hint}"
    # and brand-new ids must extend the id space, not recycle gaps
    for tid in set(live) - set(baseline):
        assert tid > max(baseline), \
            f"new wire id {tid} reuses retired id space{hint}"
