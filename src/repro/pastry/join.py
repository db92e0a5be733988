"""Joining the overlay (paper §2 and Figure 2) and nearest-neighbour seed
discovery (§2, after Castro et al. [4, 5]).

The joining node routes a join request via a nearby seed, initialises its
routing table from rows gathered along the route, then *probes every
leaf-set member* and only becomes active once all probes agree — this is
what makes routing consistent.

Seed discovery: a joining node obtains a random overlay node, then walks
towards smaller measured network distance: it asks the current candidate for
its routing state, measures the distance to the returned nodes with *single*
distance probes (cutting join latency; later measurements use the full probe
sequence), and hops to the closest node found.  The walk terminates when no
improvement is found or after a bounded number of iterations, and the
closest node seen seeds the join.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.interfaces import Clock, TimerHandle
from repro.pastry import messages as m
from repro.pastry.nodeid import NodeDescriptor

JOIN_RETRY_INTERVAL = 15.0
MAX_JOIN_ATTEMPTS = 5
MAX_ITERATIONS = 5
MAX_CANDIDATES_PER_ROUND = 16


class SeedDiscovery:
    """One nearest-neighbour walk; constructed per join attempt.

    Sees of its node only what it uses: ``send(dest, msg)``,
    ``measure(target, callback, single=True)`` (``ProximityManager.measure``),
    the clock, the probe timeout and the node's own id.
    """

    def __init__(
        self,
        send: Callable[[NodeDescriptor, m.Message], None],
        measure: Callable[..., None],
        clock: Clock,
        probe_timeout: float,
        own_id: int,
        start: NodeDescriptor,
        done: Callable[[NodeDescriptor], None],
    ) -> None:
        self._send = send
        self._measure = measure
        self._clock = clock
        self._probe_timeout = probe_timeout
        self._own_id = own_id
        self._done = done
        self._visited: Set[int] = set()
        self._best = start
        self._best_rtt: Optional[float] = None
        self._iterations = 0
        self._outstanding = 0
        self._round_best: Optional[NodeDescriptor] = None
        self._round_best_rtt = float("inf")
        self._timeout: Optional[TimerHandle] = None
        self._finished = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._measure(self._best, self._measured_start, single=True)

    def _measured_start(self, rtt: Optional[float]) -> None:
        if self._finished:
            return
        self._best_rtt = rtt if rtt is not None else float("inf")
        self._ask(self._best)

    def _ask(self, target: NodeDescriptor) -> None:
        self._visited.add(target.id)
        self._iterations += 1
        self._send(target, m.StateRequest())
        self._timeout = self._clock.schedule(self._probe_timeout * 2, self._finish)

    # ------------------------------------------------------------------
    def on_state_reply(self, msg: m.StateReply) -> None:
        if self._finished or self._timeout is None:
            return
        self._timeout.cancel()
        self._timeout = None
        candidates = [
            d
            for d in msg.nodes
            if d.id not in self._visited and d.id != self._own_id
        ][:MAX_CANDIDATES_PER_ROUND]
        if not candidates:
            self._finish()
            return
        self._round_best = None
        self._round_best_rtt = float("inf")
        self._outstanding = len(candidates)
        for desc in candidates:
            self._measure(desc, self._make_collector(desc), single=True)

    def _make_collector(self, desc: NodeDescriptor):
        def collect(rtt: Optional[float]) -> None:
            if self._finished:
                return
            self._outstanding -= 1
            if rtt is not None and rtt < self._round_best_rtt:
                self._round_best = desc
                self._round_best_rtt = rtt
            if self._outstanding == 0:
                self._round_done()

        return collect

    def _round_done(self) -> None:
        improved = (
            self._round_best is not None
            and (self._best_rtt is None or self._round_best_rtt < self._best_rtt)
        )
        if improved:
            self._best = self._round_best
            self._best_rtt = self._round_best_rtt
            if self._iterations < MAX_ITERATIONS:
                self._ask(self._best)
                return
        self._finish()

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        if self._finished:
            return
        self.cancel()
        self._done(self._best)

    def cancel(self) -> None:
        self._finished = True
        if self._timeout is not None:
            self._timeout.cancel()


class JoinProtocol:
    """Both ends of a join: the joiner's attempts, and the join requests,
    join replies and discovery walks of others that reach this node."""

    __slots__ = ("_node", "discovery", "_seed", "_seed_provider", "_attempts",
                 "_timer")

    def __init__(self, node) -> None:
        self._node = node
        self.discovery: Optional[SeedDiscovery] = None
        self._seed: Optional[NodeDescriptor] = None
        self._seed_provider: Optional[Callable[[], Optional[NodeDescriptor]]] = None
        self._attempts = 0
        self._timer: Optional[TimerHandle] = None

    def start(
        self,
        seed: NodeDescriptor,
        seed_provider: Optional[Callable[[], Optional[NodeDescriptor]]],
    ) -> None:
        node = self._node
        self._seed = seed
        self._seed_provider = seed_provider
        if node.config.pns:  # nearest-neighbour discovery seeds the join
            self.discovery = SeedDiscovery(
                node.send, node.prox.measure, node.sim,
                node.config.probe_timeout, node.id, seed, self._discovered,
            )
            self.discovery.start()
        else:
            self._send_join(seed)

    def _discovered(self, seed: NodeDescriptor) -> None:
        if self._node.crashed or self._node.active:
            return
        self.discovery = None
        self._send_join(seed)

    def _send_join(self, seed: NodeDescriptor) -> None:
        node = self._node
        self._attempts += 1
        node.send(seed, m.JoinRequest(msg_id=node.next_msg_id(), joiner=node.descriptor))
        self._timer = node.sim.schedule(JOIN_RETRY_INTERVAL, self._retry)

    def _retry(self) -> None:
        node = self._node
        if node.crashed or node.active:
            return
        if self._attempts >= MAX_JOIN_ATTEMPTS:
            return  # gives up; stays inactive (dies with high churn, §5.3)
        seed = self._seed
        if self._seed_provider is not None:
            fresh = self._seed_provider()
            if fresh is not None and fresh.id != node.id:
                seed = fresh
        if seed is not None:
            self._send_join(seed)

    def stop_retrying(self) -> None:
        if self._timer is not None:
            self._timer.cancel()

    def cancel(self) -> None:
        if self.discovery is not None:
            self.discovery.cancel()
        self.stop_retrying()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on_join_request(self, src_addr, sender, msg: m.JoinRequest) -> None:
        node = self._node
        if msg.joiner is None:  # optional on the wire; nobody to route towards
            return
        # Figure 2: R.add(Ri) — contribute our routing table rows en route.
        table = node.routing_table
        for row in table.occupied_rows():
            msg.rows.setdefault(row, []).extend(table.row_entries(row))
        # The joiner may already be known (distance reports, gossip) but it
        # is not active: never route its own join request to it.
        forwarding = node.forwarding
        next_hop = forwarding.next_hop(msg.joiner.id, frozenset({msg.joiner.id}))
        # §3.2 applied to joins: ack the previous hop only when we can make
        # progress (forward, or reply as the active root).  A mid-join node
        # that would merely buffer the request stays silent, so the sender
        # reroutes around it instead of feeding a blackhole.
        if (
            node.config.per_hop_acks
            and msg.msg_id
            and msg.sender is not None
            and (next_hop is not None or node.active)
        ):
            node.send(msg.sender, m.Ack(msg_id=msg.msg_id))
        if next_hop is None:
            forwarding.receive_root(msg, msg.joiner.id)
        else:
            forwarding.forward(msg, next_hop)

    def at_root(self, msg: m.JoinRequest) -> None:
        node = self._node
        if not node.active:
            node.forwarding.buffer(msg)
            return
        reply = m.JoinReply(
            rows=msg.rows,
            leaf_set=node.leaf_set.members() + [node.descriptor],
        )
        node.send(msg.joiner, reply)

    def on_join_reply(self, src_addr, sender, msg: m.JoinReply) -> None:
        node = self._node
        if node.crashed or node.active:
            return
        self.stop_retrying()
        table, proximity = node.routing_table, node._rt_proximity
        for entries in msg.rows.values():
            for desc in entries:
                if desc.id != node.id:
                    table.add(desc, proximity)
        for desc in msg.leaf_set:
            if desc.id != node.id:
                table.add(desc, proximity)
                node.leaf_set.add(desc)
        node.maintenance.probe_all(node.leaf_set.members())
        if not node.probing.pending:
            # Nothing to probe: both reply builders list the root itself,
            # so only a reply crafted without it gets here.  Probe the
            # sender, so the join can still complete.
            if msg.sender is not None:
                node.probe(msg.sender)

    def on_state_request(self, src_addr, sender, msg: m.StateRequest) -> None:
        self._node.send(sender, m.StateReply(nodes=self._node.routing_state_members()))

    def on_state_reply(self, src_addr, sender, msg: m.StateReply) -> None:
        if self.discovery is not None:
            self.discovery.on_state_reply(msg)
