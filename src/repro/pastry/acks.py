"""Per-hop acknowledgements with aggressive retransmission (paper §3.2).

Every node along a lookup's overlay route buffers the message after
forwarding it and starts a retransmission timer.  If the next hop does not
ack in time it is *temporarily excluded* from routing (not marked faulty —
aggressive timeouts are prone to false positives) and the message is
rerouted through an alternative entry; a liveness probe is triggered so the
exclusion is either confirmed (node marked faulty) or lifted (probe reply).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.interfaces import Clock, TimerHandle
from repro.pastry.messages import Ack, Lookup
from repro.pastry.nodeid import NodeDescriptor


@dataclass(slots=True)
class PendingHop:
    """A forwarded lookup awaiting its per-hop ack."""

    msg: Lookup
    next_hop: NodeDescriptor
    sent_at: float
    attempts: int = 1  # number of distinct hops tried (reroutes)
    same_hop_tries: int = 0  # retransmissions to the current hop
    timer: Optional[TimerHandle] = None
    retransmitted: bool = False  # Karn's rule: no RTT sample after a resend
    #: hops given up on; allocated by the first timeout that excludes one
    excluded: Optional[Set[int]] = None


class HopAckManager:
    """Tracks forwarded lookups for one node.

    Collaborates with the owning node through three callbacks:

    * ``reroute(msg, excluded)`` — re-run the routing function with the
      failed hops excluded,
    * ``suspect(desc)`` — temporarily exclude a node and probe it,
    * ``on_drop(msg)`` — the message exhausted its reroute budget.
    """

    __slots__ = (
        "_sim",
        "_rto",
        "_max_reroutes",
        "_reroute",
        "_suspect",
        "_on_drop",
        "_same_hop_retransmits",
        "_resend",
        "_probe",
        "_pending",
    )

    def __init__(
        self,
        sim: Clock,
        rto_table,
        max_reroutes: int,
        reroute: Callable[[Lookup, Set[int]], None],
        suspect: Callable[[NodeDescriptor], None],
        on_drop: Callable[[Lookup], None],
        same_hop_retransmits: int = 2,
        resend: Optional[Callable[[Lookup, NodeDescriptor], None]] = None,
        probe: Optional[Callable[[NodeDescriptor], None]] = None,
    ) -> None:
        self._sim = sim
        self._rto = rto_table
        self._max_reroutes = max_reroutes
        self._reroute = reroute
        self._suspect = suspect
        self._on_drop = on_drop
        #: TCP-style: retransmit to the same hop (with backoff) this many
        #: times before excluding it — a single lost packet must not push
        #: delivery to the wrong node (consistency under link loss, §3.2)
        self._same_hop_retransmits = same_hop_retransmits
        self._resend = resend
        self._probe = probe
        self._pending: Dict[int, PendingHop] = {}

    # ------------------------------------------------------------------
    def track(self, msg: Lookup, next_hop: NodeDescriptor) -> None:
        """Start (or continue, after a reroute) tracking a forwarded lookup."""
        pending = self._pending
        msg_id = msg.msg_id
        sim = self._sim
        entry = PendingHop(msg, next_hop, sim.now)
        if msg_id in pending:
            previous = pending.pop(msg_id)
            if previous.timer is not None:
                previous.timer.cancel()
            entry.attempts = previous.attempts + 1
            entry.retransmitted = True
            entry.excluded = previous.excluded
        entry.timer = sim.schedule(
            self._rto.rto(next_hop.addr), self._timeout, msg_id
        )
        pending[msg_id] = entry

    def on_ack(self, from_addr: int, sender, msg: Ack) -> None:
        """The node's handler for :class:`Ack` (``MSPastryNode._HANDLERS``)."""
        pending = self._pending
        msg_id = msg.msg_id
        if msg_id not in pending:
            return
        entry = pending[msg_id]
        if entry.next_hop.addr != from_addr:
            return  # stale ack from a hop we already rerouted away from
        del pending[msg_id]
        if entry.timer is not None:
            entry.timer.cancel()
        if not entry.retransmitted:
            self._rto.sample(from_addr, self._sim.now - entry.sent_at)

    def _timeout(self, msg_id: int) -> None:
        entry = self._pending.pop(msg_id, None)
        if entry is None:
            return
        if entry.same_hop_tries < self._same_hop_retransmits and self._resend is not None:
            # Retransmit to the same hop with exponential backoff; kick off
            # a liveness probe so a real failure is detected in parallel.
            entry.same_hop_tries += 1
            entry.retransmitted = True
            entry.sent_at = self._sim.now
            backoff = 2.0 ** entry.same_hop_tries
            entry.timer = self._sim.schedule(
                self._rto.rto(entry.next_hop.addr) * backoff, self._timeout, msg_id
            )
            self._pending[msg_id] = entry
            self._resend(entry.msg, entry.next_hop)
            if self._probe is not None:
                self._probe(entry.next_hop)
            return
        if entry.excluded is None:
            entry.excluded = set()
        entry.excluded.add(entry.next_hop.id)
        self._suspect(entry.next_hop)
        if entry.attempts > self._max_reroutes:
            self._on_drop(entry.msg)
            return
        # Re-track happens inside reroute via track() when a new hop exists.
        self._pending[msg_id] = entry  # keep exclusion state for track()
        forwarded = self._reroute(entry.msg, entry.excluded)
        if not forwarded:
            self._pending.pop(msg_id, None)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def cancel_all(self) -> None:
        for entry in self._pending.values():
            if entry.timer is not None:
                entry.timer.cancel()
        self._pending.clear()
