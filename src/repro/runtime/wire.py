"""Deterministic wire codec for every ``repro.pastry.messages`` type.

Layout — all integers big-endian, no padding, no host-dependent types::

    frame    := u32 body-length | body                (encode_frame)
    body     := version:u8 | type-id:u8 | flags:u8
                | [sender-descriptor]                 (flags bit 0)
                | [tuning-hint:f64]                   (flags bit 1)
                | per-type fields in dataclass order
    desc     := id:u128 | addr:u64
    opt-desc := present:u8 | [desc]
    list     := count:u16 | opt-desc*                 (each one present)
    rows     := count:u16 | (row:u16 | list)*
    payload  := kind:u8 | [u32 length | bytes]        (None/bytes/str/int)

Encoding is a pure function of the message value: the same message always
produces the same bytes (dict rows are emitted in sorted row order), so
``encode(decode(encode(msg))) == encode(msg)`` holds for every message —
``tests/test_runtime_wire.py`` enforces it across the whole registry and
``tests/golden/wire_frames.json`` pins the bytes.  The registry is not
written here: a type's id, fields, their order and kinds are declared once,
on its dataclass, and ``_REGISTRY`` is ``repro.pastry.messages.SCHEMA``.

The codec is compiled, not interpreted.  At import ``_compile`` turns each
``_REGISTRY`` entry into one frame encoder and one body decoder (generated
source) in which every maximal run of fixed-size fields — header, sender
and hint included — is one precompiled ``struct`` call, a descriptor list
is one ``iter_unpack`` over a bounds-checked span, and nothing on the
success path builds an error label.  A failed encode is explained
afterwards by ``_reject``; a decoder that runs off its buffer raises
``struct.error`` / ``IndexError``, which ``decode_frame`` reports as
truncation, so a decoder is always given a buffer that ends where its
message must.  Frames are the primitive: ``encode`` / ``decode`` strip and
add the length prefix around them.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.pastry import messages as m
from repro.pastry.nodeid import NodeDescriptor

#: bump only for incompatible layout changes; decoders reject mismatches
WIRE_VERSION = 1

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_DESC = struct.Struct(">QQQ")  # id high half, id low half, addr
_OPT_DESC = struct.Struct(">BQQQ")  # a present descriptor behind its flag
_LIST_ITEM = struct.Struct(">x24s")  # a list element: flag skipped, raw desc
_PAYLOAD_DATA = struct.Struct(">BI")  # kind, length of the bytes that follow
_PAYLOAD_INT = struct.Struct(">Bq")  # kind, value

#: inclusive upper bound of each unsigned integer width
_LIMITS = {"u16": 0xFFFF, "u32": 0xFFFFFFFF, "u64": (1 << 64) - 1,
           "u128": (1 << 128) - 1}
_MAX_U64 = _LIMITS["u64"]

#: payload kind tags
_PAYLOAD_NONE, _PAYLOAD_BYTES, _PAYLOAD_STR, _PAYLOAD_INTEGER = range(4)
#: what a plan raises on a value it cannot encode
_UNENCODABLE = (struct.error, TypeError, AttributeError, OverflowError,
                ValueError)
_Rows = Dict[int, List[NodeDescriptor]]


class WireError(ValueError):
    """Raised for unencodable values and malformed/truncated buffers."""


# ----------------------------------------------------------------------
# Variable-size kinds, encode side: ``_pack_<kind>(value) -> bytes``.  A bad
# value raises what it raises (one of ``_UNENCODABLE``); ``_reject`` turns
# that into the WireError that names the field.
# ----------------------------------------------------------------------
def _check_ints(*values: Any) -> None:
    """The slow half of the integer check, after ``type(v) is int`` failed:
    int subclasses pass, ``bool`` and everything else do not."""
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"expected int, got {type(value).__name__}")


def _pack_desc(desc: Optional[NodeDescriptor]) -> bytes:
    if desc is None:
        return b"\x00"
    i, a = desc.id, desc.addr
    if not (type(i) is type(a) is int):
        _check_ints(i, a)
    return _OPT_DESC.pack(1, i >> 64, i & _MAX_U64, a)


def _pack_desc_list(descs: List[NodeDescriptor]) -> bytes:
    if len(descs) > _LIMITS["u16"]:
        raise ValueError(f"list too long for the wire: {len(descs)}")
    pack = _OPT_DESC.pack
    out = [_U16.pack(len(descs))]
    for desc in descs:
        i, a = desc.id, desc.addr  # None inside a list: AttributeError
        if not (type(i) is type(a) is int):
            _check_ints(i, a)
        out.append(pack(1, i >> 64, i & _MAX_U64, a))
    return b"".join(out)


def _pack_rows(rows: _Rows) -> bytes:
    _check_ints(*rows)
    # Sorted row order: dict insertion order is a run artefact, not part of
    # the message value, and encoding must be a pure function of the value.
    return _U16.pack(len(rows)) + b"".join(
        _U16.pack(row) + _pack_desc_list(rows[row]) for row in sorted(rows))


def _pack_payload(payload: Any) -> bytes:
    if payload is None:
        return b"\x00"
    if isinstance(payload, (bytes, bytearray)):
        return _PAYLOAD_DATA.pack(_PAYLOAD_BYTES, len(payload)) + payload
    if isinstance(payload, str):
        data = payload.encode("utf-8")
        return _PAYLOAD_DATA.pack(_PAYLOAD_STR, len(data)) + data
    if isinstance(payload, int) and not isinstance(payload, bool):
        return _PAYLOAD_INT.pack(_PAYLOAD_INTEGER, payload)
    raise TypeError(f"unencodable payload type {type(payload).__name__} "
                    f"(wire payloads are None/bytes/str/int)")


# ----------------------------------------------------------------------
# Variable-size kinds, decode side: ``_read_<kind>(buf, pos) -> (value, new
# pos)``.  A count or length is checked against the bytes left before
# anything is built from it; running out of bytes is an IndexError or a
# struct.error, which ``decode_frame`` reports as truncation.
# ----------------------------------------------------------------------
class _DescriptorCache(dict):
    """The 24 wire bytes of a descriptor -> one shared ``NodeDescriptor``:
    the decoder's own intern table.  What arrives in datagrams must not
    grow the process for good, so at the cap it is cleared and refills
    (descriptors compare by value; sharing them is only a saving).  A hit
    is one dict lookup and no 128-bit arithmetic."""

    cap = 65536  #: distinct descriptors remembered before it starts over

    def __missing__(self, raw: bytes) -> NodeDescriptor:
        hi, lo, addr = _DESC.unpack(raw)  # struct.error if cut short
        if len(self) >= self.cap:
            self.clear()
        desc = self[raw] = NodeDescriptor(hi << 64 | lo, addr)
        return desc


_DESCRIPTORS = _DescriptorCache()


def _read_desc(buf: bytes, pos: int) -> Tuple[Optional[NodeDescriptor], int]:
    present = buf[pos]
    if present == 0:
        return None, pos + 1
    if present != 1:
        raise WireError(f"bad descriptor presence flag: {present}")
    return _DESCRIPTORS[buf[pos + 1:pos + 25]], pos + 25


def _read_desc_list(buf: bytes, pos: int) -> Tuple[List[NodeDescriptor], int]:
    (count,) = _U16.unpack_from(buf, pos)
    pos += 2
    end = pos + 25 * count
    if end > len(buf):
        raise IndexError("descriptor count exceeds the bytes left")
    if buf[pos:end:25] != b"\x01" * count:
        raise WireError("None descriptor or bad presence flag inside a list")
    return [_DESCRIPTORS[raw]
            for (raw,) in _LIST_ITEM.iter_unpack(buf[pos:end])], end


def _read_rows(buf: bytes, pos: int) -> Tuple[_Rows, int]:
    (count,) = _U16.unpack_from(buf, pos)
    pos += 2
    if pos + 4 * count > len(buf):  # a row is at least an index and a count
        raise IndexError("row count exceeds the bytes left")
    rows: _Rows = {}
    for _ in range(count):
        (row,) = _U16.unpack_from(buf, pos)
        rows[row], pos = _read_desc_list(buf, pos + 2)
    return rows, pos


def _read_payload(buf: bytes, pos: int) -> Tuple[Any, int]:
    kind = buf[pos]
    if kind == _PAYLOAD_NONE:
        return None, pos + 1
    if kind == _PAYLOAD_INTEGER:
        return _PAYLOAD_INT.unpack_from(buf, pos)[1], pos + 9
    if kind != _PAYLOAD_BYTES and kind != _PAYLOAD_STR:
        raise WireError(f"unknown payload kind: {kind}")
    start = pos + 5
    end = start + _U32.unpack_from(buf, pos + 1)[0]
    if end > len(buf):
        raise IndexError("payload length exceeds the bytes left")
    raw = buf[start:end]
    if kind == _PAYLOAD_BYTES:
        return raw, end
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"bad utf-8 in str payload: {exc}") from exc


#: (type id, message class, per-type fields beyond the shared header) as
#: ``messages.py`` reads it off its dataclasses; the plans compile from this
_REGISTRY = m.SCHEMA
_TYPE_TO_FIELDS = {cls: fields for _, cls, fields in _REGISTRY}


# ----------------------------------------------------------------------
# Plan compiler: one registry entry -> (frame encoder, body decoder)
# ----------------------------------------------------------------------
#: fixed-size kinds -> struct format; every other kind goes through its
#: ``_pack_<kind>`` / ``_read_<kind>``
_FIXED = m.FIXED_KINDS
#: Both plans of one type, as closures over its class and structs: H0..H3 /
#: D0..D3 are the header by flags value with the first run of fixed fields
#: folded in, R<j> the later runs.  Every other name is a global of this
#: module.  ``decode`` starts at the version byte, the header already checked.
_PLAN_SOURCE = """\
def plans(cls, {structs}):
    def encode(msg):
        sender = msg.sender; hint = msg.tuning_hint
        {loads}
        n = {size}
        if sender is None:
            head = (H0.pack(n, {ids}, 0, {args}) if hint is None
                    else H2.pack(n + 8, {ids}, 2, hint, {args}))
        else:
            i = sender.id; a = sender.addr
            if not (type(i) is type(a) is int):
                _check_ints(i, a)
            hi = i >> 64; lo = i & _MAX_U64
            head = (H1.pack(n + 24, {ids}, 1, hi, lo, a, {args}) if hint is None
                    else H3.pack(n + 32, {ids}, 3, hi, lo, a, hint, {args}))
        return {frame}

    def decode(buf, pos, flags):
        if flags == 1:
            [sender, {targets}] = D1.unpack_from(buf, pos); pos += {D1.size}
            sender = _DESCRIPTORS[sender]; hint = None
        elif flags == 0:
            [{targets}] = D0.unpack_from(buf, pos); pos += {D0.size}
            sender = hint = None
        elif flags == 3:
            [sender, hint, {targets}] = D3.unpack_from(buf, pos)
            sender = _DESCRIPTORS[sender]; pos += {D3.size}
        else:
            [hint, {targets}] = D2.unpack_from(buf, pos); pos += {D2.size}
            sender = None
        {reads}
        if pos != len(buf):
            raise WireError(
                f"{{len(buf) - pos}} trailing byte(s) after {name}")
        return cls({values})
    return encode, decode
"""

_ENCODERS: Dict[type, Callable[[Any], bytes]] = {}
_DECODERS: Dict[int, Callable[..., Any]] = {}


def _compile(type_id: int, cls: type, fields: Tuple[tuple, ...]) -> None:
    """Generate, compile and register the two plans of one message type."""
    # wire order: maximal runs of fixed-size fields (lists, possibly empty)
    # alternate with single variable-size fields (tuples)
    segments: List[Any] = [[]]
    for k, field in enumerate(fields):
        if field[1] in _FIXED:
            segments[-1].append((f"v{k}", *field))
        else:
            segments += [(f"v{k}", *field), []]
    structs: Dict[str, struct.Struct] = {}
    # source fragments; the list-like ones keep a trailing separator
    loads = reads = types = ints = size = ""
    fixed, frame = 3, "head, "
    values = {"sender": "sender", "tuning_hint": "hint"}
    for j, segment in enumerate(segments):
        if type(segment) is tuple:
            v, attr, kind = segment
            loads += f"{v} = _pack_{kind}(msg.{attr})\n        "
            reads += f"{v}, pos = _read_{kind}(buf, pos)\n        "
            size += f" + len({v})"
            frame += f"{v}, "
            values[attr] = v
            continue
        fmt = args = targets = ""
        for v, attr, kind in segment:
            wide = kind == "u128"
            fmt += _FIXED[kind]
            args += f"{v} >> 64, {v} & _MAX_U64, " if wide else f"{v}, "
            targets += f"{v}, {v}_, " if wide else f"{v}, "
            values[attr] = f"{v} << 64 | {v}_" if wide else v
            loads += f"{v} = msg.{attr}\n        "
            if kind in _LIMITS:
                types, ints = f"{types}type({v}) is ", f"{ints}{v}, "
        fixed += struct.calcsize(">" + fmt)
        if j == 0:
            for flags, (head, raw) in enumerate(
                    (("", ""), ("QQQ", "24s"), ("d", "d"), ("QQQd", "24sd"))):
                structs[f"H{flags}"] = struct.Struct(">IBBB" + head + fmt)
                structs[f"D{flags}"] = struct.Struct(">3x" + raw + fmt)
            head_args, head_targets = args, targets
        elif segment:
            run = structs[f"R{j}"] = struct.Struct(">" + fmt)
            frame += f"R{j}.pack({args}), "
            reads += (f"[{targets}] = R{j}.unpack_from(buf, pos); "
                      f"pos += {run.size}\n        ")
    if ints:
        loads += f"if not ({types}int): _check_ints({ints})"
    source = _PLAN_SOURCE.format(
        structs=", ".join(structs), loads=loads, reads=reads,
        size=f"{fixed}{size}", ids=f"{WIRE_VERSION}, {type_id}",
        args=head_args, targets=head_targets, name=cls.__name__,
        frame="head" if frame == "head, " else f"b''.join(({frame}))",
        values=", ".join(values.values()),  # wire order is dataclass order
        **structs)
    scope: Dict[str, Any] = {}
    exec(compile(source, f"<wire plan {cls.__name__}>", "exec"),
         globals(), scope)
    _ENCODERS[cls], _DECODERS[type_id] = scope["plans"](cls, **structs)


for _entry in _REGISTRY:
    _compile(*_entry)


def _reject(msg: m.Message) -> None:
    """Cold path, after a plan has failed: raise the WireError naming the
    first field of ``msg`` that does not encode (header first, then declared
    order); return if every field does."""
    header = (("sender", "desc"),) + (
        (("tuning_hint", "f64"),) if msg.tuning_hint is not None else ())
    for attr, kind in header + _TYPE_TO_FIELDS[msg.__class__]:
        value = getattr(msg, attr)
        try:
            if kind in _LIMITS:
                _check_ints(value)
                if not 0 <= value <= _LIMITS[kind]:
                    raise ValueError(
                        f"out of range [0, {_LIMITS[kind]}]: {value}")
            elif kind == "f64":
                struct.pack(">d", value)
            elif kind != "bool":  # any value: its truth is what is sent
                globals()[f"_pack_{kind}"](value)
        except _UNENCODABLE as exc:
            raise WireError(f"{type(msg).__name__}.{attr}: {exc}") from exc


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_frame(msg: m.Message) -> bytes:
    """``encode`` behind a u32 length prefix (datagrams, streams, files)."""
    plan = _ENCODERS.get(msg.__class__)
    if plan is None:
        raise WireError(f"no wire codec for {type(msg).__name__}")
    try:
        return plan(msg)
    except _UNENCODABLE:
        _reject(msg)
        raise  # no field's fault: a defect in the plan itself


def encode(msg: m.Message) -> bytes:
    """Serialize one message to its canonical wire bytes."""
    return encode_frame(msg)[4:]


def decode(data: bytes) -> m.Message:
    """Parse canonical wire bytes back into a message.  Strict: exactly one
    message — trailing bytes are an error, as is any truncation or unknown
    type/version."""
    return decode_frame(_U32.pack(len(data)) + data)[0]


def decode_frame(data: bytes, off: int = 0) -> Tuple[m.Message, int]:
    """Parse one length-prefixed frame at ``off``; returns (msg, new off).
    A frame that ends where ``data`` ends (a datagram) is decoded in place;
    one inside a longer buffer is sliced out once, so that no plan can read
    past its frame."""
    buf = data if type(data) is bytes else bytes(data)
    pos = end = off + 4
    if pos <= len(buf):
        end += _U32.unpack_from(buf, off)[0]
    if end > len(buf):
        raise WireError(f"truncated message: the frame at offset {off} needs "
                        f"{end - off} bytes, have {len(buf) - off}")
    if end != len(buf):
        buf, pos = buf[pos:end], 0
    try:
        version, type_id, flags = buf[pos], buf[pos + 1], buf[pos + 2]
        if version != WIRE_VERSION:
            raise WireError(f"unsupported wire version: {version}")
        plan = _DECODERS.get(type_id)
        if plan is None:
            raise WireError(f"unknown message type id: {type_id}")
        if flags > 3:  # bit 0: sender present, bit 1: tuning hint present
            raise WireError(f"unknown flag bits set: {flags:#x}")
        return plan(buf, pos, flags), end
    except (struct.error, IndexError):  # a read past the end of the frame
        raise WireError(f"truncated message: its {len(buf) - pos} bytes end "
                        f"inside a field") from None
