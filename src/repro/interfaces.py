"""The transport/clock seam between protocol code and its substrate.

The MSPastry state machines (``repro.pastry``) are pure message-driven
code: they observe time through ``clock.now``, arm timers through
``clock.schedule``, and exchange messages through
``transport.send``/``register``.  Everything else — event heaps, UDP
sockets, topologies, asyncio loops — lives behind the two Protocols in
this module:

* :class:`Clock` — ``now`` plus the three scheduling flavours of
  :class:`repro.sim.engine.Simulator`.  The simulation implementation is
  the discrete-event engine itself; the real-socket implementation is
  :class:`repro.runtime.clock.AsyncioClock`, which drives a ``Simulator``
  queue from the asyncio loop, so timers are one implementation.
* :class:`Transport` — the address/handler/send surface of
  :class:`repro.network.transport.Network`.  The real-socket
  implementation is :class:`repro.runtime.transport.UdpTransport`.

Both implementations are structurally checked against these Protocols by
``tests/test_interfaces.py`` and by mypy (``repro/interfaces.py`` and the
runtime package are in the ``[tool.mypy] files`` list).  The seam is
annotation-only on the sim side: extracting it changed no executable
statement, so golden-trace fingerprints are untouched.

Addresses are opaque ints.  The simulation packs a topology attachment
index; the UDP runtime packs ``(ipv4, port)`` (see
``repro.runtime.transport.pack_addr``).  Protocol code never inspects
address structure — it only stores, compares and passes them back.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

#: opaque network address (substrate-defined packing)
Address = int

#: message handler bound to an address: ``handler(src_addr, msg)``
Handler = Callable[[int, Any], None]


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled before it fires.

    Both substrates return :class:`repro.sim.engine.EventHandle`: the
    live clock schedules into a ``Simulator`` queue of its own.
    """

    @property
    def time(self) -> float:
        """Absolute (substrate) time the callback is due."""
        ...

    @property
    def active(self) -> bool:
        """True until the callback fires or is cancelled."""
        ...

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Time source and timer service for protocol code.

    ``now`` is seconds since an arbitrary epoch (simulation start /
    clock construction); only differences and ordering are meaningful.
    Both implementations queue timers in a
    :class:`repro.sim.engine.Simulator` and hand out its ``EventHandle``.
    """

    @property
    def now(self) -> float:
        ...

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds; cancellable."""
        ...

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` at absolute ``time``; cancellable."""
        ...

    def schedule_call(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, never cancelled."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Address allocation, handler registration and message transfer."""

    def attach(self) -> Address:
        """Allocate a new attachment point (a network address)."""
        ...

    def register(
        self, address: Address, handler: Handler, owner: Any = None
    ) -> None:
        """Bind a live node's message handler to its address."""
        ...

    def deregister(self, address: Address) -> None:
        """Crash/leave: future deliveries to ``address`` are dropped."""
        ...

    def is_registered(self, address: Address) -> bool:
        ...

    def owner_of(self, address: Address) -> Optional[Any]:
        """The node object registered at ``address`` (None if anonymous)."""
        ...

    def addresses(self) -> List[Address]:
        """All currently registered addresses, in registration order."""
        ...

    def send(self, src: Address, dst: Address, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst`` (fire and forget)."""
        ...
