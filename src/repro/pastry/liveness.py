"""Low-overhead failure detection (paper §4.1).

Heartbeat to the left neighbour, silence monitoring of the right
neighbour, and active liveness probes of the whole routing state with a
self-tuned period — all suppressible by regular traffic.  The periodic
ticks are driven by ``PeriodicTask``s the node builds on activation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.interfaces import TimerHandle
from repro.pastry import messages as m
from repro.pastry.nodeid import NodeDescriptor


class Liveness:
    __slots__ = ("_node", "_monitored_id", "_monitor_since", "rt_period",
                 "_rt_scan_handle", "_last_rt_scan")

    def __init__(self, node) -> None:
        self._node = node
        config = node.config
        self._monitored_id: Optional[int] = None
        self._monitor_since = 0.0
        tuned = (
            config.rt_probe_period_max if config.self_tuning else config.rt_probe_period
        )
        self.rt_period = min(tuned, config.state_sweep_period)
        self._rt_scan_handle: Optional[TimerHandle] = None
        self._last_rt_scan = 0.0

    def cancel(self) -> None:
        if self._rt_scan_handle is not None:
            self._rt_scan_handle.cancel()

    # ------------------------------------------------------------------
    # Heartbeats and neighbour monitoring
    # ------------------------------------------------------------------
    def heartbeat_tick(self) -> None:
        node = self._node
        # Opportunistic sweep of the recency maps: the insert-time sweeps
        # double their cap under probe bursts (a joining node contacts its
        # whole routing state within one suppression window), and without
        # further inserts the bloated table would persist.  Piggybacking on
        # an existing timer keeps the event stream untouched.
        for recency in (node.last_sent, node.ls_heard, node.last_heard):
            if len(recency) >= 128:
                recency.sweep(node.sim.now)
        node.maintenance.retry_failed()
        if node.config.heartbeat_all_leafset:
            # Ablation baseline: heartbeat every member (cost grows with l).
            for member in node.leaf_set.members():
                self._heartbeat_to(member)
            return
        left = node.leaf_set.left_neighbour
        if left is not None:
            self._heartbeat_to(left)

    def _heartbeat_to(self, target: NodeDescriptor) -> None:
        node = self._node
        if (
            node.config.probe_suppression
            and node.last_sent.get(target.id, -1e18)
            > node.sim.now - node.config.heartbeat_period
        ):
            return
        node.send(target, m.Heartbeat())

    def monitor_tick(self) -> None:
        node = self._node
        right = node.leaf_set.right_neighbour
        if right is None:
            return
        if right.id != self._monitored_id:
            self._monitored_id = right.id
            self._monitor_since = node.sim.now
            return
        deadline = node.config.heartbeat_period + node.config.probe_timeout
        heard = max(node.last_heard.get(right.id, 0.0), self._monitor_since)
        if heard < node.sim.now - deadline:
            node.suspected.discard(right.id)  # not a routing suspect, just silent
            node.probe(right)

    def on_heartbeat(self, src_addr, sender, msg) -> None:
        """A heartbeat is a direct liveness proof: recover false positives.

        A node removed on a probe false positive (likely under link loss)
        keeps heart-beating its left neighbour; seeing the heartbeat we drop
        it from the failed set and re-probe it so it can rejoin the leaf set
        — this is the fast recovery from consistency violations (§3.1).
        """
        node = self._node
        if sender.id in node.failures.failed:
            node.failures.forget(sender.id)
            node.probe(sender)
        elif sender.id not in node.leaf_set and node.leaf_set.would_admit(sender):
            node.probe(sender)

    # ------------------------------------------------------------------
    # Self-tuned routing-state probing (§3.2, §4.1)
    # ------------------------------------------------------------------
    def tune_tick(self) -> None:
        node = self._node
        members = len(node.routing_state_members())
        node.tuner.recompute_local(node.sim.now, node.leaf_set, members)
        period = min(node.tuner.current_period(), node.config.state_sweep_period)
        if period != self.rt_period:
            self.rt_period = period
            self._maybe_advance_rt_scan()

    def schedule_rt_scan(self, delay: float) -> None:
        self._rt_scan_handle = self._node.sim.schedule(delay, self.rt_scan)

    def _maybe_advance_rt_scan(self) -> None:
        handle = self._rt_scan_handle
        if handle is None or not handle.active:
            return
        now = self._node.sim.now
        desired = max(now, self._last_rt_scan + self.rt_period)
        if desired < handle.time:
            handle.cancel()
            self.schedule_rt_scan(desired - now)

    def rt_scan(self) -> None:
        node = self._node
        if node.crashed:
            return
        self._last_rt_scan = node.sim.now
        horizon = node.sim.now - self.rt_period
        # Probe the whole routing state (§3.2): routing-table entries plus
        # leaf-set members.  Heartbeats cover the immediate neighbours every
        # Tls; this much slower sweep catches dead members farther along the
        # sides that no failure announcement reached.
        probing = node.probing.pending
        rt_probing = node.rt_probing.pending
        failed = node.failures.failed
        suppression = node.config.probe_suppression
        last_heard = node.last_heard
        targets: List[NodeDescriptor] = []
        for desc in node.routing_state_members():
            did = desc.id
            if did in probing or did in rt_probing or did in failed:
                continue
            if suppression and last_heard.get(did, -1e18) > horizon:
                continue
            targets.append(desc)
        node.rt_probing.start_all(targets)
        self.schedule_rt_scan(self.rt_period)

    def send_rt_probes(self, descs: Sequence[NodeDescriptor]) -> None:
        """``send`` of the routing-table ProbeTable."""
        for desc in descs:
            self._node.send(desc, m.RtProbe())

    def rt_probe_exhausted(self, desc: NodeDescriptor) -> None:
        """``exhausted`` of the routing-table ProbeTable: the probe leaves
        the table before the node is marked faulty."""
        self._node.rt_probing.resolve(desc.id)
        self._node.maintenance.mark_faulty(desc)

    def on_rt_probe(self, src_addr, sender, msg) -> None:
        self._node.send(sender, m.RtProbeReply())

    def on_rt_probe_reply(self, src_addr, sender, msg) -> None:
        self._node.rt_probing.resolve(sender.id)
