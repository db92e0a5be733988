"""Lookup forwarding: Figure 2's route / receive-root with reliable routing
(paper §3.2).

Per-hop acks, rerouting around suspected nodes, deferral of delivery while a
closer leaf-set node is merely suspected, buffering while the node cannot
deliver, and passive routing-table slot repair.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Set

from repro.pastry import messages as m
from repro.pastry.config import DELIVERY_DEFER_INTERVAL, MAX_DELIVERY_DEFERRALS
from repro.pastry.nodeid import (
    HALF_SPACE,
    ID_BITS,
    ID_SPACE,
    NodeDescriptor,
    digit,
    is_closer_root,
    ring_distance,
    shared_prefix_length,
)

MAX_BUFFERED = 128
#: a first routing attempt excludes nobody
_NOBODY: frozenset = frozenset()


class Forwarding:
    __slots__ = ("_node", "buffered", "deferred", "deferred_ids")

    def __init__(self, node) -> None:
        self._node = node
        self.buffered: List[m.Message] = []
        #: blocker id -> lookups waiting for the suspicion on it to resolve
        self.deferred: Dict[int, List[m.Lookup]] = {}
        self.deferred_ids: Set[int] = set()

    def clear(self) -> None:
        self.buffered.clear()
        self.deferred.clear()
        self.deferred_ids.clear()

    # ------------------------------------------------------------------
    # Routing (Figure 2, routei)
    # ------------------------------------------------------------------
    def route(self, msg: m.Message, key: int, excluded: frozenset = _NOBODY) -> bool:
        """Route ``msg`` one step towards ``key``; True if forwarded."""
        next_hop = self.next_hop(key, excluded)
        if next_hop is None:
            self.receive_root(msg, key)
            return False
        self.forward(msg, next_hop)
        return True

    def next_hop(self, key: int, excluded: frozenset) -> Optional[NodeDescriptor]:
        node = self._node
        suspected = node.suspected
        failed = node.failures.failed
        my_id = node.id
        leaf_set = node.leaf_set
        if leaf_set.covers(key):
            best = leaf_set.closest_to(key, suspected, failed, excluded)
            return None if best.id == my_id else best

        config = node.config
        b = config.b
        row = shared_prefix_length(key, my_id, b)
        primary = node.routing_table.get(row, digit(key, row, b))
        if primary is not None:
            primary_id = primary.id
            if (
                primary_id not in suspected
                and primary_id not in failed
                and primary_id not in excluded
            ):
                return primary

        # Route around the missing/suspect entry: any known node strictly
        # closer to the key that shares a prefix of length >= row, i.e.
        # whose id differs from the key only below the first ``row`` digits.
        # Runs once per candidate, so that test and the ring distance are
        # inlined.
        best = None
        best_dist = ring_distance(my_id, key)
        below_prefix = ID_BITS - row * b
        for desc in chain(node.routing_table.entries(), leaf_set.members()):
            desc_id = desc.id
            if (
                desc_id in suspected
                or desc_id in failed
                or desc_id in excluded
            ):
                continue
            if (key ^ desc_id) >> below_prefix:
                continue
            dist = (desc_id - key) % ID_SPACE
            if dist > HALF_SPACE:
                dist = ID_SPACE - dist
            if dist < best_dist:
                best = desc
                best_dist = dist
        if best is not None and primary is None and config.pns:
            node.send(best, m.SlotRequest(row=row, col=digit(key, row, b)))
        return best

    def forward(self, msg: m.Message, next_hop: NodeDescriptor) -> None:
        node = self._node
        # Exact classes, as in ``node._TUNING_HINT_TYPES``: the message
        # types are flat and only these two are ever routed.
        cls = msg.__class__
        if cls is m.Lookup:
            if msg.wants_acks and node.config.per_hop_acks:
                node.acks.track(msg, next_hop)
        elif cls is m.JoinRequest:
            if msg.msg_id and node.config.per_hop_acks:
                node.acks.track(msg, next_hop)
        node.send(next_hop, msg)

    def reroute(self, msg: m.Message, excluded: Set[int]) -> bool:
        """``reroute`` of the ack manager, whose timers a crash cancels."""
        if isinstance(msg, m.JoinRequest):
            return self.route(
                msg, msg.joiner.id, frozenset(excluded) | {msg.joiner.id}
            )
        return self.route(msg, msg.key, frozenset(excluded))

    def dropped(self, msg: m.Message) -> None:
        node = self._node
        if isinstance(msg, m.Lookup) and node.on_drop is not None:
            node.on_drop(node, msg)

    def receive_root(self, msg: m.Message, key: int) -> None:
        node = self._node
        cls = msg.__class__
        if cls is m.JoinRequest:
            node.joining.at_root(msg)
            return
        if node.active:  # a Lookup: nothing else is routed
            if node.suspected and self._defer_for_suspect(msg, key):
                return
            msg.hops += 1
            if node.on_deliver is not None:
                node.on_deliver(node, msg)
        else:
            self.buffer(msg)

    def _defer_for_suspect(self, msg: m.Lookup, key: int) -> bool:
        """Hold delivery while a closer leaf-set node is merely *suspected*.

        A lost packet or ack must not divert delivery to the second-closest
        node: the suspect either answers the outstanding probe — the retry
        fires immediately and forwards to it — or is marked faulty, in
        which case we really are the root.  A safety timeout and a deferral
        cap bound the extra delay when the suspect is genuinely dead.
        """
        node = self._node
        if not node.config.defer_delivery_on_suspect:
            return False
        if msg.deferrals >= MAX_DELIVERY_DEFERRALS:
            return False
        suspected = node.suspected  # non-empty, or receive_root would not ask
        # Not LeafSet.closest_to: with several closer suspects the one that
        # holds the message (its reply or failure re-routes it) is the first
        # in members() order, not the closest.
        my_id = node.id
        blocker = None
        for desc in node.leaf_set.members():
            if desc.id in suspected and is_closer_root(desc.id, my_id, key):
                blocker = desc
                break
        if blocker is None:
            return False
        msg.deferrals += 1
        self.deferred.setdefault(blocker.id, []).append(msg)
        self.deferred_ids.add(msg.msg_id)
        node.probe(blocker)  # resolve the limbo quickly (no-op if probing)
        node.call_later(DELIVERY_DEFER_INTERVAL, self._deferred_timeout, msg)
        return True

    def _deferred_timeout(self, msg: m.Lookup) -> None:
        """Safety valve: re-route even if the suspicion has not resolved."""
        if self._node.crashed or msg.msg_id not in self.deferred_ids:
            return
        self.deferred_ids.discard(msg.msg_id)
        self.route(msg, msg.key)

    def flush_deferred_for(self, node_id: int) -> None:
        """The suspicion on ``node_id`` resolved: re-route waiting lookups."""
        for msg in self.deferred.pop(node_id, ()):
            if msg.msg_id in self.deferred_ids:
                self.deferred_ids.discard(msg.msg_id)
                self.route(msg, msg.key)

    def buffer(self, msg: m.Message) -> None:
        if len(self.buffered) >= MAX_BUFFERED:
            self.buffered.pop(0)
        self.buffered.append(msg)

    def flush_buffered(self) -> None:
        if not self.buffered or not self._node.active:
            return
        buffered, self.buffered = self.buffered, []
        for msg in buffered:
            if isinstance(msg, m.JoinRequest):
                self.route(msg, msg.joiner.id, excluded=frozenset({msg.joiner.id}))
            else:
                self.route(msg, msg.key)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on_lookup(self, src_addr, sender, msg: m.Lookup) -> None:
        # Acks go to ``msg.sender`` as it is *now*, not to ``sender``: in the
        # simulator a retransmitted lookup is one object, and the sender
        # bookkeeping in ``_on_message`` may just have flushed this very
        # object from ``deferred`` and re-forwarded it (rewriting its
        # sender to us).  The fingerprints pin that.
        node = self._node
        msg.hops += 1
        next_hop = self.next_hop(msg.key, _NOBODY)
        if (
            (next_hop is not None or node.active)
            and msg.wants_acks
            and node.config.per_hop_acks
            and msg.sender is not None
        ):
            # Ack only what we can forward or deliver: a node that would
            # merely buffer (e.g. still joining) stays silent so the
            # previous hop reroutes around it.
            node.send(msg.sender, m.Ack(msg_id=msg.msg_id))
        if next_hop is None:
            self.receive_root(msg, msg.key)
        else:
            self.forward(msg, next_hop)

    def on_app_direct(self, src_addr, sender, msg: m.AppDirect) -> None:
        node = self._node
        if node.on_app_direct is not None:
            node.on_app_direct(node, msg)

    # ------------------------------------------------------------------
    # Passive routing-table repair
    # ------------------------------------------------------------------
    def on_slot_request(self, src_addr, sender, msg: m.SlotRequest) -> None:
        entry = self.find_slot_entry(sender.id, msg.row, msg.col)
        self._node.send(sender, m.SlotReply(row=msg.row, col=msg.col, entry=entry))

    def find_slot_entry(
        self, owner_id: int, row: int, col: int
    ) -> Optional[NodeDescriptor]:
        node = self._node
        b = node.config.b
        for desc in [node.descriptor] + node.routing_state_members():
            if (
                shared_prefix_length(desc.id, owner_id, b) >= row
                and digit(desc.id, row, b) == col
            ):
                return desc
        return None

    def on_slot_reply(self, src_addr, sender, msg: m.SlotReply) -> None:
        node = self._node
        entry = msg.entry
        if entry is None or entry.id == node.id or entry.id in node.failures.failed:
            return
        # Repair rule: never insert without a direct message — probe first.
        if node.config.pns:
            node.prox.measure(entry, node.prox._make_considerer(entry))
        else:
            node.probe(entry)
