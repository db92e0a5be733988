"""One live overlay node: socket, clock, state machine, metrics.

:class:`NodeService` wires an unmodified
:class:`repro.pastry.node.MSPastryNode` to a :class:`UdpTransport` and an
:class:`AsyncioClock` and manages the parts a deployment needs around the
protocol code:

* **seed bootstrap** — the simulator hands joiners a live
  ``NodeDescriptor``; a process only has ``host:port``.  The service
  sends ``StateRequest`` to the seed endpoint (retrying once a second)
  and intercepts the ``StateReply`` to learn the seed's descriptor, then
  calls ``node.join(seed_descriptor)`` — from there the protocol runs
  exactly as in the simulator.
* **graceful shutdown** — ``stop()`` tears down metrics, crashes the
  node (MSPastry departures are fail-stop, cancelling every protocol
  timer), and closes the socket.
* **observability** — ``snapshot()`` is the JSON the metrics endpoint
  serves: the node's ``debug_state()`` (leaf set, suspects, probes, acks
  in flight, probe period, ...), routing-table fill, transport counters
  and lookup latency counters.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.interfaces import Address
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import n_rows
from repro.runtime.clock import AsyncioClock
from repro.runtime.metrics import MetricsServer
from repro.runtime.transport import UdpTransport, unpack_addr

#: seconds between StateRequest retries while locating the seed
BOOTSTRAP_RETRY = 1.0
#: bootstrap attempts before the service reports failure
MAX_BOOTSTRAP_ATTEMPTS = 30
#: most recent deliveries ``latency_ms_p50`` is the median of
LATENCY_WINDOW = 4096


class NodeService:
    """Life cycle of one MSPastry node on real sockets.

    Build with :meth:`start`; drive lookups with :meth:`issue_lookup`;
    tear down with :meth:`stop`.
    """

    def __init__(self) -> None:
        self.clock: AsyncioClock = None  # type: ignore[assignment]
        self.transport: UdpTransport = None  # type: ignore[assignment]
        self.node: MSPastryNode = None  # type: ignore[assignment]
        self.metrics: Optional[MetricsServer] = None
        self._owns_clock = False
        self._started_at = 0.0
        self._seed_addr: Optional[Address] = None
        self._awaiting_seed = False
        self._bootstrap_attempts = 0
        self._bootstrap_timer = None
        self.bootstrap_failed = False
        self._stopped = False
        self.lookups_issued = 0
        self.lookups_delivered = 0
        self.lookups_dropped = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._user_on_deliver: Optional[Callable[..., None]] = None

    @classmethod
    async def start(
        cls,
        *,
        node_id: int,
        rng_seed: int,
        config: Optional[PastryConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        seed_addr: Optional[Address] = None,
        clock: Optional[AsyncioClock] = None,
        metrics_port: Optional[int] = None,
        on_deliver: Optional[Callable[..., None]] = None,
        on_active: Optional[Callable[..., None]] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> "NodeService":
        """Bind a socket, build the node, begin joining (or bootstrap).

        ``seed_addr`` None makes this the overlay's first node (active
        immediately); otherwise it is the packed address of any live
        node, typically ``pack_addr(seed_host, seed_port)``.
        ``clock`` may be shared across services in one process.
        """
        self = cls()
        loop = loop if loop is not None else asyncio.get_event_loop()
        self._owns_clock = clock is None
        self.clock = clock if clock is not None else AsyncioClock(loop)
        self.transport = await UdpTransport.open(host, port, loop)
        self._user_on_deliver = on_deliver
        self.node = MSPastryNode(
            self.clock,
            self.transport,
            config if config is not None else PastryConfig(),
            node_id,
            random.Random(rng_seed),
            on_active=on_active,
            on_deliver=self._on_deliver,
            on_drop=self._on_drop,
        )
        # Interpose on the node's registered handler so bootstrap can see
        # the seed's StateReply before the (pre-join) node discards it.
        self.transport.register(self.node.addr, self._dispatch,
                                owner=self.node)
        self._started_at = self.clock.now
        if metrics_port is not None:
            self.metrics = MetricsServer(self.snapshot)
            await self.metrics.start(host, metrics_port)
        self._seed_addr = seed_addr
        if seed_addr is None:
            self.node.join(None)
        else:
            self._awaiting_seed = True
            self._send_bootstrap_request()
        return self

    # ------------------------------------------------------------------
    # Seed bootstrap
    # ------------------------------------------------------------------
    def _send_bootstrap_request(self) -> None:
        if not self._awaiting_seed or self._stopped:
            return
        if self._bootstrap_attempts >= MAX_BOOTSTRAP_ATTEMPTS:
            self._awaiting_seed = False
            self.bootstrap_failed = True
            return
        self._bootstrap_attempts += 1
        assert self._seed_addr is not None
        self.transport.send(
            self.node.addr, self._seed_addr,
            m.StateRequest(sender=self.node.descriptor))
        self._bootstrap_timer = self.clock.schedule(
            BOOTSTRAP_RETRY, self._send_bootstrap_request)

    def _dispatch(self, src_addr: int, msg: m.Message) -> None:
        if msg.sender is None:
            # The sender is optional on the wire but every honest send is
            # stamped and the handlers read it: line noise, counted as such.
            self.transport.messages_malformed += 1
            return
        if self._awaiting_seed and isinstance(msg, m.StateReply):
            self._awaiting_seed = False
            if self._bootstrap_timer is not None:
                self._bootstrap_timer.cancel()
            self.node.join(msg.sender)
            return
        self.node._on_message(src_addr, msg)

    # ------------------------------------------------------------------
    # Lookup bookkeeping
    # ------------------------------------------------------------------
    def issue_lookup(self, key: int, payload: Any = None,
                     register: Optional[Callable[[m.Lookup], None]] = None,
                     ) -> m.Lookup:
        """Create and route a lookup from this node; returns the message.

        When this node is itself the key's root, delivery happens
        synchronously inside routing — ``register`` runs between message
        creation and routing so callers can record bookkeeping that the
        delivery callback will look up.
        """
        msg = self.node.make_lookup(key, payload)
        self.lookups_issued += 1
        if register is not None:
            register(msg)
        self.node.route_lookup(msg)
        return msg

    def _on_deliver(self, node: MSPastryNode, msg: m.Lookup) -> None:
        self.lookups_delivered += 1
        self._latencies.append(self.clock.now - msg.sent_at)
        if self._user_on_deliver is not None:
            self._user_on_deliver(node, msg)

    def _on_drop(self, node: MSPastryNode, msg: m.Lookup) -> None:
        self.lookups_dropped += 1

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.node is not None and self.node.active

    @property
    def endpoint(self) -> str:
        host, port = unpack_addr(self.node.addr)
        return f"{host}:{port}"

    def snapshot(self) -> Dict[str, Any]:
        """The live network view served by the metrics endpoint
        (``repro-node/1``).  The counters cover the node's whole life;
        ``latency_ms_p50`` is the median over the last ``LATENCY_WINDOW``
        lookups delivered here, so a scrape costs the same on day ten as
        in minute one.  The node's own fields are its ``debug_state()``,
        with ``id`` as hex."""
        node = self.node
        config = node.config
        total_slots = n_rows(config.b) * (1 << config.b)
        latencies = self._latencies
        return {
            **node.debug_state(),
            "schema": "repro-node/1",
            "id": f"{node.id:032x}",
            "endpoint": self.endpoint,
            "uptime": self.clock.now - self._started_at,
            "bootstrap_failed": self.bootstrap_failed,
            "peers": len(node.routing_state_members()),
            "leaf_set": [f"{d.id:032x}" for d in node.leaf_set.members()],
            "routing_table_fill": len(node.routing_table) / total_slots,
            "transport": self.transport.counters(),
            "lookups": {
                "issued": self.lookups_issued,
                "delivered_here": self.lookups_delivered,
                "dropped_here": self.lookups_dropped,
                "latency_ms_p50": (
                    round(statistics.median_high(latencies) * 1000.0, 3)
                    if latencies else None),
            },
        }

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Graceful shutdown: metrics, protocol timers, then the socket."""
        if self._stopped:
            return
        self._stopped = True
        self._awaiting_seed = False
        if self._bootstrap_timer is not None:
            self._bootstrap_timer.cancel()
        if self.metrics is not None:
            await self.metrics.stop()
        if self.node is not None and not self.node.crashed:
            # Fail-stop departure: MSPastry has no leave protocol (DSN'04
            # §3 treats departures as failures), so shutdown is crash().
            self.node.crash()
        if self.transport is not None:
            self.transport.close()
        if self._owns_clock and self.clock is not None:
            self.clock.close()
