"""The wire codec against the outside world: pinned bytes, hostile bytes.

``test_runtime_wire.py`` holds the codec to its own round trip; an encoder
and a decoder that change together pass it.  Here the bytes themselves are
pinned (``tests/golden/wire_frames.json``, written by the interpretive
codec that preceded the compiled plans — deployed nodes speak them), a
decoder fed anything at all may only answer with a message or a
``WireError``, and what it remembers of the descriptors it has seen is
bounded.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry import messages as m
from repro.pastry import nodeid
from repro.pastry.nodeid import NodeDescriptor
from repro.runtime import wire
from repro.runtime.wire import (
    WireError,
    decode,
    decode_frame,
    encode,
    encode_frame,
)
from tests.conftest import wire_messages
from tests.test_golden_traces import GOLDEN_DIR, _generate


# ----------------------------------------------------------------------
# Pinned bytes
# ----------------------------------------------------------------------
def test_golden_frames_are_byte_identical():
    doc = json.loads((GOLDEN_DIR / "wire_frames.json").read_text())
    assert doc["schema"] == 1
    golden = {name: bytes.fromhex(frame)
              for name, frame in doc["frames"].items()}
    instances = _generate.wire_frame_instances()
    # every type under every header variant, and nothing pinned twice
    assert set(golden) == set(instances) == {
        f"{cls.__name__}/{variant}" for cls in wire.wire_types()
        for variant in _generate.WIRE_FRAME_VARIANTS}
    for name, msg in instances.items():
        assert encode_frame(msg) == golden[name], name
        back, end = decode_frame(golden[name])
        assert end == len(golden[name]), name
        assert encode_frame(back) == golden[name], name


# ----------------------------------------------------------------------
# Hostile bytes
# ----------------------------------------------------------------------
def _survives(decoder, data):
    """``decoder(data)`` is a message the encoder accepts or a WireError;
    any other exception fails the test that called this."""
    try:
        result = decoder(data)
    except WireError:
        return
    encode(result[0] if decoder is decode_frame else result)


@settings(max_examples=60, deadline=None)
@given(msg=wire_messages(),
       flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
                      max_size=8),
       tail=st.binary(min_size=1, max_size=8))
def test_hostile_bytes_raise_wire_error_and_nothing_else(msg, flips, tail):
    frame = encode_frame(msg)
    for decoder, data in ((decode_frame, frame), (decode, frame[4:])):
        n = len(data)
        mutants = [data[:cut] for cut in range(n)]
        mutants.append(data + tail)
        # every count and length field is some 2- or 4-byte window
        mutants += [data[:i] + b"\xff\xff" + data[i + 2:]
                    for i in range(n - 1)]
        mutants += [data[:i] + b"\xff\xff\xff\xff" + data[i + 4:]
                    for i in range(n - 3)]
        flipped = bytearray(data)
        for where, mask in flips:
            flipped[where % n] ^= mask
            mutants.append(bytes(flipped))
        for mutant in mutants:
            _survives(decoder, mutant)


def test_oversized_counts_are_rejected_before_anything_is_built():
    fresh = [NodeDescriptor((0xFEED << 100) + i, 77 + i) for i in range(3)]
    frame = bytearray(encode_frame(m.StateReply(nodes=fresh)))
    at = frame.index(b"\x00\x03\x01")  # the list's count, then its first flag
    known = len(wire._DESCRIPTORS)
    for count in (b"\x00\x04", b"\xff\xff"):
        frame[at:at + 2] = count
        with pytest.raises(WireError):
            decode_frame(bytes(frame))
    assert len(wire._DESCRIPTORS) == known
    # a payload length is held to the same rule
    lookup = bytearray(encode_frame(m.Lookup(msg_id=1, key=2, payload=b"abc")))
    at = lookup.index(b"\x01\x00\x00\x00\x03abc")
    lookup[at + 1:at + 5] = b"\xff\xff\xff\xff"
    with pytest.raises(WireError):
        decode_frame(bytes(lookup))


def test_non_bytes_buffers_decode_like_bytes():
    frame = encode_frame(m.Lookup(msg_id=1, key=2, payload="x",
                                  source=NodeDescriptor(3, 4)))
    for view in (bytearray(frame), memoryview(frame)):
        back, end = decode_frame(view)
        assert end == len(frame) and encode_frame(back) == frame
        assert encode(decode(view[4:])) == frame[4:]


# ----------------------------------------------------------------------
# Bounded memory
# ----------------------------------------------------------------------
def test_decoding_does_not_grow_the_process_without_bound():
    interned_before = len(nodeid._DESCRIPTOR_INTERN)
    cap = wire._DESCRIPTORS.cap
    n = 100_000
    assert n > cap
    for i in range(n):
        sender = NodeDescriptor((0xC0FFEE << 96) + i, i)
        back, _ = decode_frame(encode_frame(m.Heartbeat(sender=sender)))
        assert back.sender == sender
        assert len(wire._DESCRIPTORS) <= cap
    assert len(nodeid._DESCRIPTOR_INTERN) == interned_before
    # within the cap the table does share: one object per identity
    again, _ = decode_frame(encode_frame(m.Heartbeat(sender=sender)))
    assert again.sender is back.sender
