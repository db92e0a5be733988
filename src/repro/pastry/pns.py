"""Proximity neighbour selection (paper §2, §4.2).

PNS fills each routing-table slot with the *network-closest* node among
those with the required id prefix.  MSPastry implements it with constrained
gossiping:

* seed discovery: a joining node locates a nearby overlay node with the
  nearest-neighbour algorithm (walk from a random node towards smaller
  measured distances) before routing its join request,
* round-trip measurement: a sequence of distance probes (default 3, spaced
  1 s apart) whose median is the proximity sample; a *single* probe is used
  during seed discovery to cut join latency,
* symmetric probing: after i measures the RTT to j it reports the value to
  j, so j can consider i without probing back — almost halving probe count,
* join announcements: the joiner sends row r of its table to every node in
  that row; receivers probe unknown entries and keep whichever is closer,
* periodic routing-table maintenance: every ~20 minutes a node asks one
  member of each row for that row and probes the unknown entries,
* passive repair: an empty slot hit during routing triggers a slot request
  to the next hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

from repro.pastry import messages as m
from repro.pastry.config import DISTANCE_PROBE_COUNT, DISTANCE_PROBE_SPACING
from repro.pastry.nodeid import NodeDescriptor


@dataclass(slots=True)
class _Measurement:
    target: NodeDescriptor
    single: bool
    samples: List[float] = field(default_factory=list)
    resolved: int = 0  # probes answered or timed out
    sent: int = 0
    sent_at: Dict[int, float] = field(default_factory=dict)
    timers: Dict[int, object] = field(default_factory=dict)
    #: handles of the staggered _send_probe events; kept on the measurement
    #: so they are released the moment it completes (a long-lived node would
    #: otherwise accumulate hundreds of consumed 72-byte handles).
    sends: List[object] = field(default_factory=list)
    callbacks: List[Callable[[Optional[float]], None]] = field(default_factory=list)


class ProximityManager:
    """Distance probing and PNS bookkeeping for one node.

    The manager owns the proximity cache (node id -> measured RTT) that the
    routing table's PNS replacement policy consults.  It never reads the
    topology directly: all proximity values are obtained through protocol
    messages, exactly as a deployment would.
    """

    __slots__ = ("_node", "_config", "_sim", "proximity", "_measuring", "_orphaned_sends")

    def __init__(self, node) -> None:
        self._node = node
        self._config = node.config
        self._sim = node.sim
        self.proximity: Dict[int, float] = {}
        self._measuring: Dict[int, _Measurement] = {}
        #: still-scheduled _send_probe handles of *forgotten* measurements.
        #: They must stay uncancelled (firing them is a no-op, and cancelling
        #: would perturb the executed-event stream) but cancel_all() has to
        #: be able to cancel them at crash time, exactly as it always could.
        self._orphaned_sends: List[object] = []

    # ------------------------------------------------------------------
    # Proximity cache
    # ------------------------------------------------------------------
    def record(self, node_id: int, rtt: float, addr: Optional[int] = None) -> None:
        self.proximity[node_id] = rtt
        if addr is not None:
            self._node.rto_table.seed(addr, rtt)

    def forget(self, node_id: int) -> None:
        self.proximity.pop(node_id, None)
        measurement = self._measuring.pop(node_id, None)
        if measurement is not None:
            for timer in measurement.timers.values():
                timer.cancel()
            if len(self._orphaned_sends) > 16:
                self._orphaned_sends = [
                    h for h in self._orphaned_sends if h.active
                ]
            self._orphaned_sends.extend(
                h for h in measurement.sends if h.active
            )

    # ------------------------------------------------------------------
    # Distance measurement
    # ------------------------------------------------------------------
    def measure(
        self,
        target: NodeDescriptor,
        callback: Optional[Callable[[Optional[float]], None]] = None,
        single: bool = False,
    ) -> None:
        """Measure the RTT to ``target``; callback gets the median (or None).

        Concurrent requests for the same target share one measurement.
        A completed measurement is reported to the peer when symmetric
        probing is on.
        """
        cached = self.proximity.get(target.id)
        if cached is not None:
            if callback is not None:
                callback(cached)
            return
        measurement = self._measuring.get(target.id)
        if measurement is not None:
            if callback is not None:
                measurement.callbacks.append(callback)
            return
        measurement = _Measurement(target=target, single=single)
        if callback is not None:
            measurement.callbacks.append(callback)
        self._measuring[target.id] = measurement
        n_probes = 1 if single else DISTANCE_PROBE_COUNT
        for i in range(n_probes):
            delay = i * DISTANCE_PROBE_SPACING
            handle = self._sim.schedule(delay, self._send_probe, target.id)
            measurement.sends.append(handle)

    def _send_probe(self, target_id: int) -> None:
        measurement = self._measuring.get(target_id)
        if measurement is None:
            return
        measurement.sent += 1
        seq = measurement.sent
        measurement.sent_at[seq] = self._sim.now
        measurement.timers[seq] = self._sim.schedule(
            self._config.probe_timeout, self._probe_timeout, target_id, seq
        )
        self._node.send(measurement.target, m.DistanceProbe(seq=seq))

    def on_probe(self, src_addr, sender: NodeDescriptor, msg: m.DistanceProbe) -> None:
        self._node.send(sender, m.DistanceProbeReply(seq=msg.seq))

    def on_probe_reply(self, src_addr, sender: NodeDescriptor, msg: m.DistanceProbeReply) -> None:
        measurement = self._measuring.get(sender.id)
        if measurement is None:
            return
        sent_at = measurement.sent_at.pop(msg.seq, None)
        if sent_at is None:
            return  # duplicate or late reply
        timer = measurement.timers.pop(msg.seq, None)
        if timer is not None:
            timer.cancel()
        measurement.samples.append(self._sim.now - sent_at)
        measurement.resolved += 1
        self._maybe_finish(sender.id, measurement)

    def _probe_timeout(self, target_id: int, seq: int) -> None:
        measurement = self._measuring.get(target_id)
        if measurement is None:
            return
        measurement.sent_at.pop(seq, None)
        measurement.timers.pop(seq, None)
        measurement.resolved += 1
        self._maybe_finish(target_id, measurement)

    def _maybe_finish(self, target_id: int, measurement: _Measurement) -> None:
        total = 1 if measurement.single else DISTANCE_PROBE_COUNT
        if measurement.resolved < total:
            return
        del self._measuring[target_id]
        value = median(measurement.samples) if measurement.samples else None
        if value is not None:
            self.record(target_id, value, measurement.target.addr)
            if self._config.symmetric_distance_probes:
                self._node.send(measurement.target, m.DistanceReport(rtt=value))
        for callback in measurement.callbacks:
            callback(value)

    def on_report(self, src_addr, sender: NodeDescriptor, msg: m.DistanceReport) -> None:
        """Symmetric probing: adopt the peer's measurement of our RTT."""
        self.record(sender.id, msg.rtt, sender.addr)
        self._node.consider_for_routing_table(sender)

    # ------------------------------------------------------------------
    # Join announcements and routing-table gossip
    # ------------------------------------------------------------------
    def announce_rows(self) -> None:
        """Send row r of the routing table to each node in that row (§2)."""
        table = self._node.routing_table
        for row in table.occupied_rows():
            entries = table.row_entries(row)
            for target in entries:
                self._node.send(
                    target, m.RowAnnounce(row=row, entries=list(entries))
                )

    def probe_routing_state(self) -> None:
        """Joining node measures distances to everyone in its routing state.

        The peers wait for the symmetric DistanceReport instead of probing
        back (paper §4.2: the joiner initiates, nodeIds break further ties).
        """
        for desc in self._node.routing_state_members():
            self.measure(desc)

    def on_row_announce(self, src_addr, sender: NodeDescriptor, msg: m.RowAnnounce) -> None:
        self._consider_entries(msg.entries)

    def on_row_request(self, src_addr, sender: NodeDescriptor, msg: m.RowRequest) -> None:
        entries = self._node.routing_table.row_entries(msg.row)
        self._node.send(sender, m.RowReply(row=msg.row, entries=entries))

    def on_row_reply(self, src_addr, sender: NodeDescriptor, msg: m.RowReply) -> None:
        self._consider_entries(msg.entries)

    def _consider_entries(self, entries: List[NodeDescriptor]) -> None:
        """Probe unknown candidates, then PNS-consider them for the table."""
        node = self._node
        for desc in entries:
            if desc.id == node.id or desc.id in node.failures.failed:
                continue
            if desc.id in self.proximity:
                node.consider_for_routing_table(desc)
            else:
                self.measure(desc, self._make_considerer(desc))

    def _make_considerer(self, desc: NodeDescriptor):
        def consider(rtt: Optional[float]) -> None:
            if rtt is not None:
                self._node.consider_for_routing_table(desc)

        return consider

    def run_maintenance(self) -> None:
        """Periodic routing-table maintenance sweep (every ~20 min, §2)."""
        table = self._node.routing_table
        rng = self._node.rng
        for row in table.occupied_rows():
            entries = table.row_entries(row)
            if entries:
                self._node.send(rng.choice(entries), m.RowRequest(row=row))

    # ------------------------------------------------------------------
    def cancel_all(self) -> None:
        for measurement in self._measuring.values():
            for timer in measurement.timers.values():
                timer.cancel()
            for handle in measurement.sends:
                handle.cancel()
        self._measuring.clear()
        for handle in self._orphaned_sends:
            handle.cancel()
        self._orphaned_sends.clear()
