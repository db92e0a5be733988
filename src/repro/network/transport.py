"""Lossy packet transport on top of a topology.

Semantics match the paper's simulator: point-to-point message delivery after
the topology's one-way delay, an optional uniform message loss probability,
and no congestion modelling.  Messages sent to a node that has failed (been
deregistered) are silently dropped on delivery — the crash-stop model.

Beyond the paper, an optional :class:`repro.faults.FaultState` attached as
``network.faults`` injects adversarial pathologies: per-link bursty loss,
partitions, gray senders and delay inflation (see ``repro.faults``).

Determinism contract
--------------------
Fault consultation happens in a fixed order on the hot path — on ``send``:
uniform channel loss (one RNG draw) → topology delay → ``filter_send`` →
``adjust_delay``; on delivery: ``filter_deliver`` (so partitions cut
traffic already in flight) → handler lookup.  Reordering any of these
consultations changes RNG streams and therefore breaks same-seed
byte-identical results.  Fault targeting sorts :meth:`Network.addresses`
before it samples, so its choices do not depend on registration order.

There is one send path.  With no stats collector, zero loss and no fault
table — the configuration of a warm-up — every optional step is one
``is None`` / ``> 0`` test, and what remains is a delay lookup and a
fire-and-forget schedule (:meth:`Simulator.schedule_call`; deliveries are
never cancelled).  A fault table that holds no fault (before the first
fault starts, after the last one ends) is skipped on its ``engaged``
attribute: its hooks would draw nothing and drop nothing.

Message accounting distinguishes three counters:

* ``messages_sent`` — *attempted* sends (what a sender pays for),
* ``messages_lost`` — dropped by the channel (uniform loss) or by fault
  injection (``faults.drops`` counts the latter, per fault kind),
* ``messages_delivered`` — handler actually invoked;
  ``messages_dropped_dead`` counts arrivals at deregistered addresses.

An attached ``stats`` collector sees every attempt via ``on_send`` and every
channel/fault loss via ``on_loss`` (if it defines one), so it can report
sent, lost and delivered per message type separately.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.interfaces import Address, Handler
from repro.network.base import Topology
from repro.sim.engine import Simulator


class Network:
    """Message transport connecting end nodes over a :class:`Topology`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: random.Random,
        loss_rate: float = 0.0,
        stats: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self._rng = rng
        self._handlers: Dict[Address, Handler] = {}
        self._owners: Dict[Address, Any] = {}
        #: optional fault table (repro.faults.FaultState); installed by a
        #: FaultSchedule, consulted on every send and delivery
        self.faults: Optional[Any] = None
        self._stats: Optional[Any] = None
        self._on_loss: Optional[Callable[..., None]] = None
        # Hot-path bindings: sim and topology never change over a run.
        self._schedule_call = sim.schedule_call
        self._delay = topology.delay
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate out of range: {loss_rate}")
        #: uniform per-message loss probability
        self.loss_rate = loss_rate
        self.stats = stats
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_delivered = 0
        self.messages_dropped_dead = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Optional[Any]:
        """Stats collector seeing every send/loss (installed mid-run)."""
        return self._stats

    @stats.setter
    def stats(self, collector: Optional[Any]) -> None:
        self._stats = collector
        self._on_loss = getattr(collector, "on_loss", None)

    # ------------------------------------------------------------------
    def attach(self) -> Address:
        """Create a new attachment point (a network address)."""
        return self.topology.attach(self._rng)

    def register(self, address: Address, handler: Handler, owner: Any = None) -> None:
        """Bind a live node's message handler to its address.

        ``owner`` optionally records the node object behind the handler so
        address-level subsystems (fault injection picking compromise
        targets) can reach the node without reflecting on the callable.
        """
        self._handlers[address] = handler
        if owner is not None:
            self._owners[address] = owner

    def deregister(self, address: Address) -> None:
        """Crash/leave: future deliveries to this address are dropped."""
        self._handlers.pop(address, None)
        self._owners.pop(address, None)

    def owner_of(self, address: Address) -> Optional[Any]:
        """The node object registered at ``address`` (None if anonymous)."""
        return self._owners.get(address)

    def addresses(self) -> List[Address]:
        """All currently registered addresses, in registration order.

        Fault targeting sorts this list before feeding it into RNG-driven
        sampling, so its choices depend on which addresses are live, not
        on the order they registered in.
        """
        return list(self._handlers)

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, msg: Any) -> None:
        """Send ``msg`` from address ``src`` to ``dst`` (fire and forget)."""
        self.messages_sent += 1
        stats = self._stats
        if stats is not None:
            stats.on_send(msg, src, dst, self.sim.now)
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self._lose(msg, src, dst)
            return
        delay = self._delay(src, dst)
        faults = self.faults
        if faults is not None and faults.engaged:
            if faults.filter_send(src, dst) is not None:
                self._lose(msg, src, dst)
                return
            delay = faults.adjust_delay(src, dst, delay)
        self._schedule_call(delay, self._deliver, src, dst, msg)

    def _lose(self, msg: Any, src: int, dst: int) -> None:
        self.messages_lost += 1
        if self._on_loss is not None:
            self._on_loss(msg, src, dst, self.sim.now)

    def _deliver(self, src: int, dst: int, msg: Any) -> None:
        # Faults are consulted at delivery time too: a partition installed
        # while the message was in flight must still cut it.
        faults = self.faults
        if faults is not None and faults.engaged and faults.filter_deliver(
                src, dst) is not None:
            self._lose(msg, src, dst)
            return
        handlers = self._handlers
        if dst not in handlers:
            self.messages_dropped_dead += 1
            return
        self.messages_delivered += 1
        handlers[dst](src, msg)
