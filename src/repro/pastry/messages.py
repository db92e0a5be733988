"""Overlay protocol messages.

Every message class carries a ``category`` used by the metrics collector for
the control-traffic breakdown of the paper's Figure 4 (distance probes, leaf
set heartbeats/probes, routing-table probes, acks + retransmits, join).
Lookups are application traffic and excluded from control-traffic counts.

``tuning_hint`` piggybacks the sender's locally computed routing-table
probing period T^l_rt (paper §4.1, self-tuning); receivers adopt the median
of hints from their routing state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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


@dataclass(slots=True)
class Message:
    category = "unknown"
    sender: NodeDescriptor = field(default=None)
    tuning_hint: Optional[float] = field(default=None)


@dataclass(slots=True)
class JoinRequest(Message):
    category = CAT_JOIN
    #: join requests are routed like lookups and, like them, per-hop acked
    #: (§3.2): an un-acked join dies silently at the first dead hop, and the
    #: joiner's coarse retry timer is a poor substitute for rerouting
    msg_id: int = 0
    joiner: NodeDescriptor = None
    #: routing-table rows accumulated along the join route: row index ->
    #: descriptors from the node whose prefix match length equals that row
    rows: Dict[int, List[NodeDescriptor]] = field(default_factory=dict)


@dataclass(slots=True)
class JoinReply(Message):
    category = CAT_JOIN
    rows: Dict[int, List[NodeDescriptor]] = field(default_factory=dict)
    leaf_set: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class LsProbe(Message):
    """Leaf set probe (Figure 2): carries the sender's leaf set and failed set."""

    category = CAT_LEAFSET
    leaf_set: List[NodeDescriptor] = field(default_factory=list)
    failed: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class LsProbeReply(Message):
    category = CAT_LEAFSET
    leaf_set: List[NodeDescriptor] = field(default_factory=list)
    failed: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class Heartbeat(Message):
    """Sent every Tls to the left neighbour only (§4.1)."""

    category = CAT_HEARTBEAT


@dataclass(slots=True)
class RtProbe(Message):
    """Liveness probe for a routing-table entry."""

    category = CAT_RT_PROBE
    seq: int = 0


@dataclass(slots=True)
class RtProbeReply(Message):
    category = CAT_RT_PROBE
    seq: int = 0


@dataclass(slots=True)
class DistanceProbe(Message):
    """Round-trip measurement probe for proximity neighbour selection."""

    category = CAT_DISTANCE
    seq: int = 0


@dataclass(slots=True)
class DistanceProbeReply(Message):
    category = CAT_DISTANCE
    seq: int = 0


@dataclass(slots=True)
class DistanceReport(Message):
    """Symmetric probing: tells the peer the RTT we measured to it (§4.2)."""

    category = CAT_DISTANCE
    rtt: float = 0.0


@dataclass(slots=True)
class RowAnnounce(Message):
    """A joining node sends row r of its table to each node in that row."""

    category = CAT_JOIN
    row: int = 0
    entries: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class RowRequest(Message):
    """Periodic routing-table maintenance: ask a row member for its row."""

    category = CAT_RT_MAINT
    row: int = 0


@dataclass(slots=True)
class RowReply(Message):
    category = CAT_RT_MAINT
    row: int = 0
    entries: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class SlotRequest(Message):
    """Passive repair: ask the next hop for an entry for an empty slot."""

    category = CAT_RT_MAINT
    row: int = 0
    col: int = 0


@dataclass(slots=True)
class SlotReply(Message):
    category = CAT_RT_MAINT
    row: int = 0
    col: int = 0
    entry: Optional[NodeDescriptor] = None


@dataclass(slots=True)
class LeafSetRequest(Message):
    """Generalized leaf-set repair: ask for the l+1 closest nodes to a key."""

    category = CAT_LEAFSET
    key: int = 0


@dataclass(slots=True)
class LeafSetReply(Message):
    category = CAT_LEAFSET
    key: int = 0
    nodes: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class Lookup(Message):
    """Application lookup routed to the key's root (§2)."""

    category = CAT_LOOKUP
    msg_id: int = 0
    key: int = 0
    source: NodeDescriptor = None
    sent_at: float = 0.0
    hops: int = 0
    payload: object = None
    #: switches per-hop acks off for this message when the app requests it
    wants_acks: bool = True
    #: times delivery was deferred waiting on a suspected closer node
    deferrals: int = 0


@dataclass(slots=True)
class Ack(Message):
    """Per-hop acknowledgement for a routed message — Lookup or JoinRequest (§3.2)."""

    category = CAT_ACK
    msg_id: int = 0


CONTROL_CATEGORIES: Tuple[str, ...] = (
    CAT_DISTANCE,
    CAT_LEAFSET,
    CAT_HEARTBEAT,
    CAT_RT_PROBE,
    CAT_ACK,
    CAT_JOIN,
    CAT_RT_MAINT,
)


@dataclass(slots=True)
class StateRequest(Message):
    """Nearest-neighbour seed discovery: ask a node for its routing state."""

    category = CAT_JOIN


@dataclass(slots=True)
class StateReply(Message):
    category = CAT_JOIN
    nodes: List[NodeDescriptor] = field(default_factory=list)


@dataclass(slots=True)
class AppDirect(Message):
    """Application-level point-to-point message (counted as app traffic)."""

    category = CAT_LOOKUP
    payload: object = None


# ----------------------------------------------------------------------
# Wire-size model
# ----------------------------------------------------------------------
#: fixed per-message overhead: UDP/IP headers plus type tag and msg ids
HEADER_BYTES = 48
#: a NodeDescriptor on the wire: 128-bit id + address + port
DESCRIPTOR_BYTES = 22


# Per-type payload bytes beyond the shared header/sender/hint part.
# ``wire_size`` is on the transport hot path (every send while a stats
# collector is attached); the sizing function is found by one exact-type
# dict lookup instead of the former ~20-branch isinstance chain.  Values
# are identical branch by branch.

def _extra_ls_probe(msg) -> int:
    return DESCRIPTOR_BYTES * (len(msg.leaf_set) + len(msg.failed))


def _extra_join_request(msg) -> int:
    size = 8  # msg_id
    for entries in msg.rows.values():
        size += DESCRIPTOR_BYTES * len(entries)
    if msg.joiner is not None:
        size += DESCRIPTOR_BYTES
    return size


def _extra_join_reply(msg) -> int:
    size = DESCRIPTOR_BYTES * len(msg.leaf_set)
    for entries in msg.rows.values():
        size += DESCRIPTOR_BYTES * len(entries)
    return size


def _extra_row_entries(msg) -> int:
    return 2 + DESCRIPTOR_BYTES * len(msg.entries)


def _extra_state_reply(msg) -> int:
    return DESCRIPTOR_BYTES * len(msg.nodes)


def _extra_leafset_reply(msg) -> int:
    return 16 + DESCRIPTOR_BYTES * len(msg.nodes)


def _extra_slot_reply(msg) -> int:
    if msg.entry is not None:
        return 4 + DESCRIPTOR_BYTES
    return 4


def _extra_lookup(msg) -> int:
    return 16 + 8 + DESCRIPTOR_BYTES  # key, id, source


def _extra_const_16(msg) -> int:  # LeafSetRequest key / AppDirect payload ref
    return 16


def _extra_const_8(msg) -> int:  # seq / msg_id / row / rtt payloads
    return 8


def _extra_const_4(msg) -> int:  # SlotRequest (row, col)
    return 4


def _extra_zero(msg) -> int:
    return 0


#: Fallback resolution order for message *subclasses* — mirrors the old
#: isinstance chain so a subclass sizes exactly as it used to.  The shipped
#: message types are flat, so the exact-type table below always hits.
_EXTRA_ORDER: Tuple[Tuple[type, Callable[[Message], int]], ...] = (
    (LsProbe, _extra_ls_probe),
    (LsProbeReply, _extra_ls_probe),
    (JoinRequest, _extra_join_request),
    (JoinReply, _extra_join_reply),
    (RowAnnounce, _extra_row_entries),
    (RowReply, _extra_row_entries),
    (StateReply, _extra_state_reply),
    (LeafSetReply, _extra_leafset_reply),
    (LeafSetRequest, _extra_const_16),
    (Lookup, _extra_lookup),
    (SlotRequest, _extra_const_4),
    (SlotReply, _extra_slot_reply),
    (Ack, _extra_const_8),
    (RtProbe, _extra_const_8),
    (RtProbeReply, _extra_const_8),
    (DistanceProbe, _extra_const_8),
    (DistanceProbeReply, _extra_const_8),
    (Heartbeat, _extra_const_8),
    (RowRequest, _extra_const_8),
    (StateRequest, _extra_const_8),
    (DistanceReport, _extra_const_8),
    (AppDirect, _extra_const_16),
)

_EXTRA_SIZE: Dict[type, Callable[[Message], int]] = dict(_EXTRA_ORDER)


def _resolve_extra(msg_type: type) -> Callable[[Message], int]:
    """Slow path for unknown message subclasses, memoized into the table."""
    for registered, fn in _EXTRA_ORDER:
        if issubclass(msg_type, registered):
            _EXTRA_SIZE[msg_type] = fn
            return fn
    _EXTRA_SIZE[msg_type] = _extra_zero
    return _extra_zero


def wire_size(msg: Message) -> int:
    """Estimated bytes of ``msg`` on the wire.

    The paper reports control traffic in messages/second; this model adds a
    bandwidth view for library users.  Sizes follow the obvious encoding:
    fixed header, 22 bytes per node descriptor carried, 16 bytes per key.
    """
    size = HEADER_BYTES
    if msg.sender is not None:
        size += DESCRIPTOR_BYTES
    if msg.tuning_hint is not None:
        size += 8
    extra = _EXTRA_SIZE.get(msg.__class__)
    if extra is None:
        extra = _resolve_extra(msg.__class__)
    return size + extra(msg)
