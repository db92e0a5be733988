"""Overlay protocol messages, and the one schema both substrates read.

Every message class carries a ``category`` used by the metrics collector for
the control-traffic breakdown of the paper's Figure 4 (distance probes, leaf
set heartbeats/probes, routing-table probes, acks + retransmits, join).
Lookups are application traffic and excluded from control-traffic counts.

``tuning_hint`` piggybacks the sender's locally computed routing-table
probing period T^l_rt (paper §4.1, self-tuning); receivers adopt the median
of hints from their routing state.

Schema rule: a message is declared once, on its dataclass — a ``wire_id``
beside ``category`` and one line per field naming its wire kind
(``seq: int = wire("u32", 0)``); ``sender`` / ``tuning_hint`` are the header
every message shares.  Wire order is field order.  Ids are append-only, never
renumbered, and pinned by ``tests/golden/wire_ids.json``.  ``SCHEMA`` is read
off the classes at the bottom of the module, and ``repro.runtime.wire``
compiles its codec from it.  The codec is the only description of the bytes:
a message's size is ``len(encode_frame(msg))``, and the simulator, whose
figures count messages, never sizes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.pastry.nodeid import NodeDescriptor

# Control-traffic categories (Figure 4 breakdown).
CAT_DISTANCE = "distance_probes"
CAT_LEAFSET = "leafset"
CAT_HEARTBEAT = "heartbeats"
CAT_RT_PROBE = "rt_probes"
CAT_ACK = "acks_retransmits"
CAT_JOIN = "join"
CAT_RT_MAINT = "rt_maintenance"
CAT_LOOKUP = "lookup"
CONTROL_CATEGORIES: Tuple[str, ...] = (
    CAT_DISTANCE, CAT_LEAFSET, CAT_HEARTBEAT, CAT_RT_PROBE, CAT_ACK, CAT_JOIN,
    CAT_RT_MAINT)

#: fixed-size wire kinds -> struct format (a u128 travels as two 64-bit
#: halves); the other four kinds are ``_VARIABLE_KINDS`` below
FIXED_KINDS = {"u16": "H", "u32": "I", "u128": "QQ", "f64": "d", "bool": "?"}


def wire(kind: str, default: Any = None) -> Any:
    """A message field that travels as wire kind ``kind``.  ``default`` is its
    default value, or ``list`` / ``dict`` for a fresh container per message."""
    if default is list or default is dict:
        return field(default_factory=default, metadata={"wire": kind})
    return field(default=default, metadata={"wire": kind})


@dataclass(slots=True)
class Message:
    category = "unknown"
    sender: NodeDescriptor = field(default=None)
    tuning_hint: Optional[float] = field(default=None)


@dataclass(slots=True)
class JoinRequest(Message):
    category, wire_id = CAT_JOIN, 1
    #: join requests are routed like lookups and, like them, per-hop acked
    #: (§3.2): an un-acked join dies silently at the first dead hop, and the
    #: joiner's coarse retry timer is a poor substitute for rerouting
    msg_id: int = wire("u128", 0)
    joiner: NodeDescriptor = wire("desc")
    #: routing-table rows accumulated along the join route: row index ->
    #: descriptors from the node whose prefix match length equals that row
    rows: Dict[int, List[NodeDescriptor]] = wire("rows", dict)


@dataclass(slots=True)
class JoinReply(Message):
    category, wire_id = CAT_JOIN, 2
    rows: Dict[int, List[NodeDescriptor]] = wire("rows", dict)
    leaf_set: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class LsProbe(Message):
    """Leaf set probe (Figure 2): carries the sender's leaf set and failed set."""
    category, wire_id = CAT_LEAFSET, 3
    leaf_set: List[NodeDescriptor] = wire("desc_list", list)
    failed: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class LsProbeReply(Message):
    category, wire_id = CAT_LEAFSET, 4
    leaf_set: List[NodeDescriptor] = wire("desc_list", list)
    failed: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class Heartbeat(Message):
    """Sent every Tls to the left neighbour only (§4.1)."""
    category, wire_id = CAT_HEARTBEAT, 5


@dataclass(slots=True)
class RtProbe(Message):
    """Liveness probe for a routing-table entry."""
    category, wire_id = CAT_RT_PROBE, 6
    seq: int = wire("u32", 0)


@dataclass(slots=True)
class RtProbeReply(Message):
    category, wire_id = CAT_RT_PROBE, 7
    seq: int = wire("u32", 0)


@dataclass(slots=True)
class DistanceProbe(Message):
    """Round-trip measurement probe for proximity neighbour selection."""
    category, wire_id = CAT_DISTANCE, 8
    seq: int = wire("u32", 0)


@dataclass(slots=True)
class DistanceProbeReply(Message):
    category, wire_id = CAT_DISTANCE, 9
    seq: int = wire("u32", 0)


@dataclass(slots=True)
class DistanceReport(Message):
    """Symmetric probing: tells the peer the RTT we measured to it (§4.2)."""
    category, wire_id = CAT_DISTANCE, 10
    rtt: float = wire("f64", 0.0)


@dataclass(slots=True)
class RowAnnounce(Message):
    """A joining node sends row r of its table to each node in that row."""
    category, wire_id = CAT_JOIN, 11
    row: int = wire("u16", 0)
    entries: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class RowRequest(Message):
    """Periodic routing-table maintenance: ask a row member for its row."""
    category, wire_id = CAT_RT_MAINT, 12
    row: int = wire("u16", 0)


@dataclass(slots=True)
class RowReply(Message):
    category, wire_id = CAT_RT_MAINT, 13
    row: int = wire("u16", 0)
    entries: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class SlotRequest(Message):
    """Passive repair: ask the next hop for an entry for an empty slot."""
    category, wire_id = CAT_RT_MAINT, 14
    row: int = wire("u16", 0)
    col: int = wire("u16", 0)


@dataclass(slots=True)
class SlotReply(Message):
    category, wire_id = CAT_RT_MAINT, 15
    row: int = wire("u16", 0)
    col: int = wire("u16", 0)
    entry: Optional[NodeDescriptor] = wire("desc")


@dataclass(slots=True)
class LeafSetRequest(Message):
    """Generalized leaf-set repair: ask for the l+1 closest nodes to a key."""
    category, wire_id = CAT_LEAFSET, 16
    key: int = wire("u128", 0)


@dataclass(slots=True)
class LeafSetReply(Message):
    category, wire_id = CAT_LEAFSET, 17
    key: int = wire("u128", 0)
    nodes: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class Lookup(Message):
    """Application lookup routed to the key's root (§2)."""
    category, wire_id = CAT_LOOKUP, 18
    msg_id: int = wire("u128", 0)
    key: int = wire("u128", 0)
    source: NodeDescriptor = wire("desc")
    sent_at: float = wire("f64", 0.0)
    hops: int = wire("u32", 0)
    payload: object = wire("payload")
    #: switches per-hop acks off for this message when the app requests it
    wants_acks: bool = wire("bool", True)
    #: times delivery was deferred waiting on a suspected closer node
    deferrals: int = wire("u32", 0)


@dataclass(slots=True)
class Ack(Message):
    """Per-hop acknowledgement for a routed message — Lookup or JoinRequest (§3.2)."""
    category, wire_id = CAT_ACK, 19
    msg_id: int = wire("u128", 0)


@dataclass(slots=True)
class StateRequest(Message):
    """Nearest-neighbour seed discovery: ask a node for its routing state."""
    category, wire_id = CAT_JOIN, 20


@dataclass(slots=True)
class StateReply(Message):
    category, wire_id = CAT_JOIN, 21
    nodes: List[NodeDescriptor] = wire("desc_list", list)


@dataclass(slots=True)
class AppDirect(Message):
    """Application-level point-to-point message (counted as app traffic)."""
    category, wire_id = CAT_LOOKUP, 22
    payload: object = wire("payload")


# --- the schema, read off the classes above ---

#: the variable-size wire kinds, each packed and read by its own pair of
#: functions in ``repro.runtime.wire``
_VARIABLE_KINDS = ("desc", "desc_list", "rows", "payload")


def _declared(cls: type) -> Tuple[int, type, Tuple[Tuple[str, str], ...]]:
    """The ``SCHEMA`` entry of ``cls``, read off its own declaration."""
    kinds = tuple((f.name, f.metadata.get("wire")) for f in fields(cls)[2:])
    bare = [n for n, k in kinds if k not in FIXED_KINDS and k not in _VARIABLE_KINDS]
    if bare or type(vars(cls).get("wire_id")) is not int:
        raise TypeError(f"{cls.__name__}: no wire_id, or no wire kind on {bare}")
    return cls.wire_id, cls, kinds


#: ``(wire_id, cls, ((field, kind), ...))`` per concrete message class in
#: declaration order; the fields are those after the header's two
SCHEMA = tuple(
    _declared(cls) for cls in list(vars().values())
    if isinstance(cls, type) and issubclass(cls, Message) and cls is not Message)
if len({wire_id for wire_id, _, _ in SCHEMA}) < len(SCHEMA):
    raise TypeError("two message classes declare one wire_id")
