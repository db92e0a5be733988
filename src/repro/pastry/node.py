"""MSPastry node: consistent and reliable overlay routing (paper Figure 2).

One instance is one overlay node.  The node is a state machine driven by
network messages and timers; there are no threads.  Life cycle::

    node = MSPastryNode(sim, network, config, node_id, rng)
    node.join(seed_descriptor)        # None -> bootstrap node
    ... becomes active after its leaf-set probes all agree ...
    node.lookup(key)                  # route a message to the key's root
    node.crash()                      # crash-stop: all state is lost

The class is wiring: construction, ``send``, the sender bookkeeping every
incoming message gets, activation, crash, and the public surface.  The
protocol (paper §3) lives in slotted components that read node state through
the node — ``join`` (joining, seed discovery), ``maintenance`` (leaf-set
probing, failure announcement and repair: the consistency core), ``liveness``
(heartbeats, neighbour monitoring, self-tuned routing-state probing),
``forwarding`` (routing with per-hop acks, rerouting, deferral, buffering),
next to ``acks``, ``rto``, ``pns`` and ``selftuning``; ``state`` holds the
probe tables, the failure memory and the recency maps they share.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Callable, ClassVar, Dict, List, Optional, Set

from repro.interfaces import Clock, TimerHandle, Transport
from repro.pastry import messages as m
from repro.pastry.acks import HopAckManager
from repro.pastry.config import (
    CANDIDATE_PROBE_SUPPRESSION,
    MAX_PROBE_RETRIES,
    RT_MAINTENANCE_PERIOD,
    SELF_TUNING_INTERVAL,
    STATE_SWEEP_PERIOD,
    PastryConfig,
)
from repro.pastry.forwarding import Forwarding
from repro.pastry.join import JoinProtocol
from repro.pastry.leafset import LeafSet
from repro.pastry.liveness import Liveness
from repro.pastry.maintenance import LeafSetMaintenance
from repro.pastry.nodeid import NodeDescriptor, intern_descriptor
from repro.pastry.pns import ProximityManager
from repro.pastry.routingtable import RoutingTable
from repro.pastry.rto import RtoTable
from repro.pastry.selftuning import SelfTuner
from repro.pastry.state import FailureMemory, ProbeTable, RecencyMap
from repro.sim.periodic import PeriodicTask

#: outgoing message types that carry the self-tuning period hint.  Exact
#: classes suffice: these are always instantiated directly by this package's
#: own send sites (the shipped message types are flat), so the frozenset
#: test replaces a 5-way isinstance walk on every send.
_TUNING_HINT_TYPES = frozenset(
    (m.LsProbe, m.LsProbeReply, m.Heartbeat, m.RtProbe, m.RtProbeReply)
)
#: what ``_on_message`` finds for a message class nobody handles
_UNHANDLED = (None, None, False)
#: positions in ``MSPastryNode._components``, which the handler table names
#: a handler's component by: the table stays one per class and a dispatch
#: is a tuple index, not a ``getattr`` by name
_JOINING, _MAINTENANCE, _LIVENESS, _FORWARDING, _PROX, _ACKS = range(6)


class MSPastryNode:
    #: message class -> (component, handler, is_contact), built once for the
    #: class.  ``component`` indexes ``self._components``; a handler is the
    #: component class's plain function, called as ``handler(component,
    #: src_addr, sender, msg)``; a class not listed is silently dropped.
    #: ``is_contact`` marks the types active ring members send, eligible to
    #: trigger contact-driven leaf-set recovery in ``_on_message``.
    _HANDLERS: ClassVar[Dict[type, tuple]] = {
        m.Lookup: (_FORWARDING, Forwarding.on_lookup, True),
        m.Ack: (_ACKS, HopAckManager.on_ack, True),
        m.LsProbe: (_MAINTENANCE, LeafSetMaintenance.on_ls_probe, False),
        m.LsProbeReply: (_MAINTENANCE, LeafSetMaintenance.on_ls_probe_reply, False),
        m.Heartbeat: (_LIVENESS, Liveness.on_heartbeat, True),
        m.JoinRequest: (_JOINING, JoinProtocol.on_join_request, False),
        m.JoinReply: (_JOINING, JoinProtocol.on_join_reply, False),
        m.RtProbe: (_LIVENESS, Liveness.on_rt_probe, True),
        m.RtProbeReply: (_LIVENESS, Liveness.on_rt_probe_reply, True),
        m.DistanceProbe: (_PROX, ProximityManager.on_probe, False),
        m.DistanceProbeReply: (_PROX, ProximityManager.on_probe_reply, False),
        m.DistanceReport: (_PROX, ProximityManager.on_report, False),
        m.RowAnnounce: (_PROX, ProximityManager.on_row_announce, False),
        m.RowRequest: (_PROX, ProximityManager.on_row_request, False),
        m.RowReply: (_PROX, ProximityManager.on_row_reply, False),
        m.SlotRequest: (_FORWARDING, Forwarding.on_slot_request, False),
        m.SlotReply: (_FORWARDING, Forwarding.on_slot_reply, False),
        m.LeafSetRequest: (_MAINTENANCE, LeafSetMaintenance.on_leafset_request, False),
        m.LeafSetReply: (_MAINTENANCE, LeafSetMaintenance.on_leafset_reply, False),
        m.AppDirect: (_FORWARDING, Forwarding.on_app_direct, False),
        m.StateRequest: (_JOINING, JoinProtocol.on_state_request, False),
        m.StateReply: (_JOINING, JoinProtocol.on_state_reply, False),
    }

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        config: PastryConfig,
        node_id: int,
        rng: random.Random,
        on_active: Optional[Callable[["MSPastryNode"], None]] = None,
        on_deliver: Optional[Callable[["MSPastryNode", m.Lookup], None]] = None,
        on_drop: Optional[Callable[["MSPastryNode", m.Lookup], None]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.rng = rng
        self.addr = network.attach()
        self.descriptor = intern_descriptor(node_id, self.addr)
        #: plain attribute (== descriptor.id, never reassigned): the id is
        #: read millions of times per run and a property indirection was a
        #: measurable slice of the message hot path.
        self.id = node_id
        # The upcalls and ``adversary`` are reassigned after construction
        # (SquirrelProxy, ActiveAdversary): components read them
        # through the node at call time and never capture them.
        self.on_active = on_active
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.on_app_direct: Optional[Callable[["MSPastryNode", m.AppDirect], None]] = None

        self.leaf_set = LeafSet(self.descriptor, config.leaf_set_size)
        self.routing_table = RoutingTable(self.descriptor, config.b)
        self.active = False
        self.crashed = False
        #: Byzantine behavior overlay (repro.adversary.ActiveAdversary) or
        #: None.  Consulted with a single is-None test per message — the
        #: disabled cost on the hot path (as the transport does for its
        #: fault table): no RNG draws, no extra events, byte-identical runs.
        self.adversary = None
        self.joined_at: Optional[float] = None
        self.activated_at: Optional[float] = None

        self.failures = FailureMemory()
        self.suspected: Set[int] = set()
        #: one probe cycle: the failure-claim contradiction window
        self.probe_cycle = (MAX_PROBE_RETRIES + 1) * config.probe_timeout
        self.last_heard = RecencyMap(max(
            STATE_SWEEP_PERIOD,  # rt_scan suppression (<= this)
            config.heartbeat_period + config.probe_timeout,  # monitor_tick
            self.probe_cycle,
        ))
        self.last_sent = RecencyMap(config.heartbeat_period)  # _heartbeat_to
        #: completed LS-probe exchanges, for candidate-probe suppression
        self.ls_heard = RecencyMap(CANDIDATE_PROBE_SUPPRESSION)

        self.rto_table = RtoTable(config.rto_initial, config.rto_min,
                                  config.rto_variance_weight)
        self.tuner = SelfTuner(config)
        self.prox = ProximityManager(self)
        # Routing-table proximity function, resolved once: config.pns and
        # the ProximityManager are fixed for the node's lifetime.
        self._rt_proximity = self.prox.proximity if config.pns else None

        self.joining = JoinProtocol(self)
        self.maintenance = LeafSetMaintenance(self)
        self.liveness = Liveness(self)
        self.forwarding = Forwarding(self)
        self.probing = ProbeTable(
            sim, config.probe_timeout,
            self.maintenance.send_ls_probes, self.maintenance.ls_probe_exhausted,
        )
        self.rt_probing = ProbeTable(
            sim, config.probe_timeout,
            self.liveness.send_rt_probes, self.liveness.rt_probe_exhausted,
        )
        self.acks = HopAckManager(
            sim,
            self.rto_table,
            reroute=self.forwarding.reroute,
            suspect=self.suspect,
            on_drop=self.forwarding.dropped,
        )

        self._components = (self.joining, self.maintenance, self.liveness,
                            self.forwarding, self.prox, self.acks)

        self._lookup_seq = 0
        self._tasks: List[PeriodicTask] = []
        #: one-shot timers (repair probes, delivery deferrals), for crash()
        self._timers: List[TimerHandle] = []

        network.register(self.addr, self._on_message, owner=self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else ("active" if self.active else "joining")
        return f"MSPastryNode({self.id:08x}.., {state})"

    def routing_state_members(self) -> List[NodeDescriptor]:
        """Unique descriptors across routing table and leaf set."""
        seen: Dict[int, NodeDescriptor] = {}
        for desc in chain(self.routing_table.entries(), self.leaf_set.members()):
            seen[desc.id] = desc
        return list(seen.values())

    def send(self, dest: NodeDescriptor, msg: m.Message) -> None:
        msg.sender = self.descriptor
        if self.config.self_tuning and msg.__class__ in _TUNING_HINT_TYPES:
            msg.tuning_hint = self.tuner.local_period
        last_sent = self.last_sent
        last_sent[dest.id] = now = self.sim.now
        if len(last_sent) >= last_sent.cap:
            last_sent.sweep(now)
        self.network.send(self.addr, dest.addr, msg)

    def next_msg_id(self) -> int:
        self._lookup_seq += 1
        return (self.addr << 24) | (self._lookup_seq & 0xFFFFFF)

    def call_later(self, delay: float, callback: Callable[..., None], arg) -> None:
        """A one-shot timer that dies with the node."""
        if len(self._timers) > 64:
            self._timers = [h for h in self._timers if h.active]
        self._timers.append(self.sim.schedule(delay, callback, arg))

    # ------------------------------------------------------------------
    # Public surface: join, lookup, probe, suspect
    # ------------------------------------------------------------------
    def join(
        self,
        seed: Optional[NodeDescriptor],
        seed_provider: Optional[Callable[[], Optional[NodeDescriptor]]] = None,
    ) -> None:
        """Join the overlay via ``seed`` (None bootstraps a new overlay)."""
        self.joined_at = self.sim.now
        self.tuner.failures.start(self.sim.now)
        if seed is None:
            self._activate()
        else:
            self.joining.start(seed, seed_provider)

    def make_lookup(self, key: int, payload: object = None) -> m.Lookup:
        """Create (but do not route) a lookup message originating here."""
        return m.Lookup(
            msg_id=self.next_msg_id(),
            key=key,
            source=self.descriptor,
            sent_at=self.sim.now,
            payload=payload,
            wants_acks=self.config.per_hop_acks,
        )

    def route_lookup(self, msg: m.Lookup) -> None:
        """Route a lookup created with :meth:`make_lookup`."""
        self.forwarding.route(msg, msg.key)

    def lookup(self, key: int, payload: object = None) -> m.Lookup:
        """Originate a lookup; returns the message (its id tracks delivery).

        Note: when the local node is itself the key's root the delivery
        happens synchronously inside this call.  Callers that need to
        observe the delivery must use :meth:`make_lookup`, register their
        bookkeeping, then :meth:`route_lookup`.
        """
        msg = self.make_lookup(key, payload)
        self.route_lookup(msg)
        return msg

    def probe(self, desc: NodeDescriptor) -> None:
        """Figure 2's probe: LS-PROBE ``desc`` unless one is outstanding or
        the node is remembered as failed."""
        if (
            desc.id == self.id
            or desc.id in self.probing.pending
            or desc.id in self.failures.failed
        ):
            return
        self.probing.start(desc)

    def suspect(self, desc: NodeDescriptor) -> None:
        """SUSPECT-FAULTY: exclude from routing until a probe resolves it."""
        if desc.id == self.id or desc.id in self.failures.failed:
            return
        self.suspected.add(desc.id)
        self.probe(desc)

    def consider_for_routing_table(self, desc: NodeDescriptor) -> None:
        if desc.id == self.id or desc.id in self.failures.failed:
            return
        self.routing_table.add(desc, self._rt_proximity)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        if self.active or self.crashed:
            return
        self.active = True
        self.activated_at = self.sim.now
        self.failures.clear_stale(self.leaf_set.admitted)
        self.joining.stop_retrying()
        # Notify before flushing buffered traffic: the node is the root of
        # its key range from this instant on.
        if self.on_active is not None:
            self.on_active(self)
        # Every PeriodicTask a node owns is built here, through this
        # module's global name (perf/tracing.py rebinds it to label ticks).
        config = self.config
        liveness = self.liveness
        uniform = self.rng.uniform
        self._tasks.append(
            PeriodicTask(self.sim, config.heartbeat_period, liveness.heartbeat_tick,
                         start_delay=uniform(0, config.heartbeat_period))
        )
        self._tasks.append(
            PeriodicTask(self.sim, config.heartbeat_period, liveness.monitor_tick,
                         start_delay=uniform(0, config.heartbeat_period))
        )
        if config.self_tuning:
            self._tasks.append(
                PeriodicTask(self.sim, SELF_TUNING_INTERVAL, liveness.tune_tick,
                             start_delay=uniform(0, SELF_TUNING_INTERVAL))
            )
        if config.pns:
            self._tasks.append(
                PeriodicTask(self.sim, RT_MAINTENANCE_PERIOD,
                             self.prox.run_maintenance,
                             start_delay=uniform(0.5 * RT_MAINTENANCE_PERIOD,
                                                 1.5 * RT_MAINTENANCE_PERIOD))
            )
        if config.active_rt_probing:
            liveness.schedule_rt_scan(uniform(0, liveness.rt_period))
        if config.pns and len(self.routing_table) > 0:
            self.prox.probe_routing_state()
            self.prox.announce_rows()
        self.forwarding.flush_buffered()

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, src_addr: int, msg: m.Message) -> None:
        if self.crashed:
            return
        handlers = self._HANDLERS
        cls = msg.__class__
        component, handler, is_contact = (
            handlers[cls] if cls in handlers else _UNHANDLED)
        sender = msg.sender
        if sender is not None and (sender_id := sender.id) != self.id:
            last_heard = self.last_heard
            last_heard[sender_id] = now = self.sim.now
            if len(last_heard) >= last_heard.cap:
                last_heard.sweep(now)
            if self.suspected:
                self.suspected.discard(sender_id)
            forwarding = self.forwarding
            if forwarding.deferred and sender_id in forwarding.deferred:
                forwarding.flush_deferred_for(sender_id)
            hint = msg.tuning_hint
            if hint is not None and hint > 0:
                self.tuner.hints[sender_id] = hint
            # Contact-driven leaf-set recovery: traffic from a node that
            # belongs in our leaf set but is not there triggers a probe.
            # This generalizes the heartbeat recovery rule and is what
            # re-merges two rings after a network partition heals — the
            # first cross-side contact (a routed lookup, an RT probe) pulls
            # the sender in, and the ensuing LS-PROBE exchange propagates
            # both sides' leaf sets.  Only message types that active members
            # send qualify (the ``is_contact`` flag in the handler table):
            # probing e.g. a seed-discovery walker or a mid-join node would
            # entangle it in the ring prematurely.
            if is_contact and self.active:
                leaf_set = self.leaf_set
                if (
                    sender_id not in leaf_set._members
                    and sender_id not in self.failures.failed
                    and leaf_set.would_admit(sender)
                ):
                    self.probe(sender)
        if handler is not None:
            # Byzantine overlay: the sender bookkeeping above still ran (a
            # compromised node keeps its own protocol state honest), but the
            # overlay may consume the message instead of the real handler.
            adversary = self.adversary
            if adversary is not None and adversary.intercept(src_addr, msg):
                return
            handler(self._components[component], src_addr, sender, msg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def debug_state(self) -> dict:
        """Snapshot of the node's protocol state (for operators/tests)."""
        return {
            "id": self.id,
            "addr": self.addr,
            "active": self.active,
            "crashed": self.crashed,
            "leaf_set_size": len(self.leaf_set),
            "leaf_left": len(self.leaf_set.left_side),
            "leaf_right": len(self.leaf_set.right_side),
            "routing_table_entries": len(self.routing_table),
            "probing": len(self.probing.pending),
            "rt_probing": len(self.rt_probing.pending),
            "suspected": len(self.suspected),
            "failed_remembered": len(self.failures.failed),
            "buffered": len(self.forwarding.buffered),
            "deferred": len(self.forwarding.deferred_ids),
            "acks_in_flight": self.acks.in_flight,
            "rt_probe_period": self.liveness.rt_period,
            "mu_estimate": self.tuner.mu_estimate,
            "n_estimate": self.tuner.n_estimate,
            "proximity_cache": len(self.prox.proximity),
        }

    # ------------------------------------------------------------------
    # Crash-stop
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: lose all state, cancel all timers, leave the network."""
        if self.crashed:
            return
        self.crashed = True
        self.active = False
        self.network.deregister(self.addr)
        if self.adversary is not None:
            self.adversary.uninstall()
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self.probing.cancel_all()
        self.rt_probing.cancel_all()
        self.acks.cancel_all()
        self.prox.cancel_all()
        self.joining.cancel()
        self.liveness.cancel()
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self.forwarding.clear()

    leave = crash  # voluntary departure is indistinguishable from a crash
