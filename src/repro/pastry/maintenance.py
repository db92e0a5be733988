"""Leaf-set maintenance: the consistency core of Figure 2 (paper §3.1).

LS-PROBE / LS-PROBE-REPLY handling, done-probing (activation only after all
probes agree), mark-faulty with eager announcement, expiry of failure
memory, and leaf-set repair — refill from the extremes, and generalized
repair from the routing table when a whole side is gone.
"""

from __future__ import annotations

from typing import Sequence

from repro.pastry import messages as m
from repro.pastry.config import CANDIDATE_PROBE_SUPPRESSION
from repro.pastry.nodeid import ID_SPACE, NodeDescriptor, ring_distance

REPAIR_PROBE_DELAY = 0.5


class LeafSetMaintenance:
    __slots__ = ("_node", "_refill_version")

    def __init__(self, node) -> None:
        self._node = node
        self._refill_version = -1

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def send_ls_probes(self, descs: Sequence[NodeDescriptor]) -> None:
        """``send`` of the leaf-set ProbeTable.  The payload is computed
        once per burst — valid because nothing in the loop mutates the leaf
        set or the failure maps."""
        node = self._node
        leaf_set = node.leaf_set.members()
        advertised = node.failures.advertised(node.sim.now)
        for desc in descs:
            node.send(desc, m.LsProbe(leaf_set=leaf_set, failed=advertised))

    def probe_all(self, descs: Sequence[NodeDescriptor]) -> None:
        """``node.probe`` over a burst of distinct candidates, same vetoes."""
        node = self._node
        my_id = node.id
        pending = node.probing.pending
        failed = node.failures.failed
        node.probing.start_all([
            desc for desc in descs
            if desc.id != my_id and desc.id not in pending and desc.id not in failed
        ])

    def ls_probe_exhausted(self, desc: NodeDescriptor) -> None:
        """``exhausted`` of the leaf-set ProbeTable: the probe stays pending
        while the node is marked faulty."""
        self.mark_faulty(desc)
        self.done_probing(desc.id)

    def mark_faulty(self, desc: NodeDescriptor) -> None:
        """Remove a confirmed-dead node from all routing state (Figure 2)."""
        node = self._node
        leaf_set = node.leaf_set
        was_leaf = desc.id in leaf_set
        leaf_set.remove(desc.id)
        node.routing_table.remove(desc.id)
        node.suspected.discard(desc.id)
        now = node.sim.now
        fresh = node.failures.mark(desc, now, leaf_set.would_admit)
        node.tuner.forget_peer(desc.id)
        if fresh:
            # Expiry re-probes of the same remembered corpse are
            # re-observations, not new failures: recording them would
            # inflate the self-tuning failure-rate estimate.
            node.tuner.failures.record_failure(now)
        node.prox.forget(desc.id)
        node.last_heard.pop(desc.id, None)
        node.ls_heard.pop(desc.id, None)
        node.forwarding.flush_deferred_for(desc.id)
        if was_leaf and node.active:
            # §4.1: announce the failure to the other leaf-set members; their
            # replies double as repair candidates.
            self.probe_all(leaf_set.members())

    def retry_failed(self) -> None:
        """Expire failure memory (``FAILED_MEMORY``)."""
        node = self._node
        if node.failures.failed:
            for desc in node.failures.expire(node.sim.now, node.leaf_set.would_admit):
                node.probe(desc)

    def done_probing(self, node_id: int) -> None:
        node = self._node
        node.probing.resolve(node_id)
        if node.probing.pending:
            return
        if node.leaf_set.complete:
            node.failures.clear_stale(node.leaf_set.would_admit)
            if not node.active:
                node._activate()
            else:
                node.forwarding.flush_buffered()
            self._refill_if_thin()
        else:
            self._repair_leaf_set()

    def handle_ls_info(self, sender: NodeDescriptor, msg) -> None:
        """Common processing of LS-PROBE and LS-PROBE-REPLY (Figure 2)."""
        node = self._node
        now = node.sim.now
        leaf_set = node.leaf_set
        my_id = node.id
        sender_id = sender.id
        failures = node.failures
        failed = failures.failed
        if (
            sender_id in failed
            or sender_id in failures.failed_at
            or sender_id in failures.backoff
        ):
            failures.forget(sender_id)
        ls_heard = node.ls_heard
        ls_heard[sender_id] = now
        if len(ls_heard) >= ls_heard.cap:
            ls_heard.sweep(now)
        leaf_set.add(sender)
        node.consider_for_routing_table(sender)
        # Verify claimed failures of our own leaf-set members ourselves: the
        # member stays until our probe fails (a false claim must not evict a
        # live neighbour), and a claim contradicted by fresher direct
        # evidence — we heard from the node within one probe cycle — is
        # ignored outright.
        probe = node.probe
        probe_cycle = node.probe_cycle
        members = leaf_set._members
        for desc in msg.failed:
            if desc.id == my_id:
                continue
            claimed = members.get(desc.id)
            if claimed is not None:
                if node.last_heard.get(desc.id, -1e18) > now - probe_cycle:
                    continue
                probe(claimed)
        # Candidates from the sender's leaf set, probed before inclusion.
        # Suppression: a candidate we exchanged leaf sets with in the last
        # few seconds told us everything a fresh probe would; re-probing it
        # every time a neighbour mentions it turns membership flapping
        # (gray failures, partition heal) into a ring-wide probe storm.
        # Never suppress while joining or mid-repair: an ignored candidate
        # offer is not revisited, and a stalled repair can outlast a
        # joiner's retry budget.
        suppress = (
            CANDIDATE_PROBE_SUPPRESSION
            if node.config.probe_suppression and node.active and leaf_set.complete
            else 0.0
        )
        horizon = now - suppress
        # Inline leaf_set.would_admit against bounds hoisted out of the
        # loop: the owner/member vetoes are already covered by the my_id
        # and membership checks above, and nothing in the loop body mutates
        # the ring (probe() only arms a timer and sends), so the admission
        # window is loop-invariant.  Same comparisons as would_admit,
        # candidate for candidate.
        ring_keys = leaf_set._ring_keys
        n = len(ring_keys)
        half = leaf_set._half
        bounded = n >= half
        if bounded:
            lo = ring_keys[half - 1]
            hi = ring_keys[n - half]
        for desc in msg.leaf_set:
            did = desc.id
            # Membership first: in a stable ring most offered candidates
            # are already members, and these vetoes are order-independent
            # pure filters.
            if did in members or did == my_id or did in failed:
                continue
            if suppress and ls_heard.get(did, -1e18) > horizon:
                continue
            if bounded:
                cw = (did - my_id) % ID_SPACE
                if lo <= cw <= hi:
                    continue
            probe(desc)

    def on_ls_probe(self, src_addr, sender, msg: m.LsProbe) -> None:
        self.handle_ls_info(sender, msg)
        node = self._node
        node.send(
            sender,
            m.LsProbeReply(
                leaf_set=node.leaf_set.members(),
                failed=node.failures.advertised(node.sim.now),
            ),
        )

    def on_ls_probe_reply(self, src_addr, sender, msg: m.LsProbeReply) -> None:
        self.handle_ls_info(sender, msg)
        if sender.id in self._node.probing.pending:
            self.done_probing(sender.id)

    # ------------------------------------------------------------------
    # Leaf-set repair (§3.1)
    # ------------------------------------------------------------------
    def _repair_leaf_set(self) -> None:
        leaf_set = self._node.leaf_set
        half = self._node.config.leaf_set_size // 2
        left, right = leaf_set.left_side, leaf_set.right_side
        if left and len(left) < half:
            self._schedule_repair_probe(leaf_set.leftmost)
        if right and len(right) < half:
            self._schedule_repair_probe(leaf_set.rightmost)
        if not left or not right:
            self._generalized_repair(missing_left=not left, missing_right=not right)

    def _refill_if_thin(self) -> None:
        """Re-probe the leaf-set extremes after losses in a large ring.

        A leaf set that knows fewer than ``l`` members cannot tell a small
        overlay from one it is mid-repair in (see LeafSet.wrapped).  When it
        still knows at least l/2 members — a strong hint the ring is large —
        the extremes are probed so their leaf sets refill ours.  Guarded by
        the leaf-set version so a drained probe round with no new members
        terminates instead of ping-ponging.
        """
        leaf_set = self._node.leaf_set
        if (
            not leaf_set.wrapped()
            or len(leaf_set) < self._node.config.leaf_set_size // 2
        ):
            return
        if leaf_set.version == self._refill_version:
            return
        self._refill_version = leaf_set.version
        if leaf_set.leftmost is not None:
            self._schedule_repair_probe(leaf_set.leftmost)
        if leaf_set.rightmost is not None:
            self._schedule_repair_probe(leaf_set.rightmost)

    def _schedule_repair_probe(self, desc: NodeDescriptor) -> None:
        self._node.call_later(REPAIR_PROBE_DELAY, self._repair_probe, desc)

    def _repair_probe(self, desc: NodeDescriptor) -> None:
        if not self._node.crashed:
            self._node.probe(desc)

    def _generalized_repair(self, missing_left: bool, missing_right: bool) -> None:
        """Use the routing table to rebuild an empty leaf-set side (§3.1)."""
        node = self._node
        my_id = node.id
        candidates = node.routing_state_members()
        if not candidates:
            return  # isolated: nothing we can do
        if missing_right:
            target = min(candidates, key=lambda d: (d.id - my_id) % ID_SPACE)
            node.send(target, m.LeafSetRequest(key=my_id))
        if missing_left:
            target = min(candidates, key=lambda d: (my_id - d.id) % ID_SPACE)
            node.send(target, m.LeafSetRequest(key=my_id))

    def on_leafset_request(self, src_addr, sender, msg: m.LeafSetRequest) -> None:
        node = self._node
        pool = node.routing_state_members() + [node.descriptor]
        pool = [d for d in pool if d.id != sender.id]
        pool.sort(key=lambda d: ring_distance(d.id, msg.key))
        node.send(
            sender,
            m.LeafSetReply(key=msg.key, nodes=pool[: node.config.leaf_set_size + 1]),
        )

    def on_leafset_reply(self, src_addr, sender, msg: m.LeafSetReply) -> None:
        node = self._node
        for desc in msg.nodes:
            if node.leaf_set.would_admit(desc):
                node.probe(desc)
