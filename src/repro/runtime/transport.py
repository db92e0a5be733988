"""UDP implementation of the :class:`repro.interfaces.Transport` seam.

One :class:`UdpTransport` is one socket is one node — the deployment
shape, where every overlay node owns a port.  Addresses stay plain ints
(the protocol code compares and stores them, nothing more) by packing
IPv4 endpoint and port into one integer::

    addr = (ipv4_as_u32 << 16) | port        # fits in 48 bits

so a :class:`repro.pastry.nodeid.NodeDescriptor` carries a routable
address in the same field the simulator uses for topology attachment
indexes.  ``Lookup.msg_id = (addr << 24) | seq`` then spans up to 72
bits, which is why the wire codec transmits message ids as 128-bit
integers rather than u64.

Delivery: each datagram is one length-prefixed frame
(:func:`repro.runtime.wire.encode_frame`).  The source address handed to
the handler is recovered from the UDP peer endpoint, so per-hop ack
matching (``HopAckManager.on_ack`` compares ``from_addr`` against
``next_hop.addr``) works exactly as in the simulator.  Malformed
datagrams are counted and dropped — on a real network they are line
noise, not a protocol event.

Per datagram the socket pays for the frame and the syscall, not for
address arithmetic: :func:`pack_addr` and :func:`unpack_addr` are pure, so
both remember their most recent peers (bounded, least recently used out
first — a flood of spoofed source addresses evicts itself).
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.interfaces import Address, Handler
from repro.runtime.wire import WireError, decode_frame, encode_frame

log = logging.getLogger(__name__)

_PORT_BITS = 16
_PORT_MASK = (1 << _PORT_BITS) - 1
#: peers whose packed <-> endpoint forms are remembered, in each direction
_PEER_CACHE = 4096
#: bytes asyncio reads per datagram: the largest IPv4 UDP payload fits.
#: asyncio's 256 KiB default is above glibc's 128 KiB mmap threshold, so
#: every read would map and unmap a fresh buffer (DESIGN.md §13).
_RECV_BUFFER = 65536


@functools.lru_cache(maxsize=_PEER_CACHE)
def pack_addr(host: str, port: int) -> Address:
    """Pack a dotted-quad IPv4 host and port into one opaque int."""
    if not 0 < port <= _PORT_MASK:
        raise ValueError(f"port out of range: {port}")
    ip = struct.unpack(">I", socket.inet_aton(host))[0]
    return (ip << _PORT_BITS) | port


@functools.lru_cache(maxsize=_PEER_CACHE)
def unpack_addr(addr: Address) -> Tuple[str, int]:
    """Inverse of :func:`pack_addr`."""
    host = socket.inet_ntoa(struct.pack(">I", addr >> _PORT_BITS))
    return host, addr & _PORT_MASK


class _DatagramProtocol(asyncio.DatagramProtocol):
    """asyncio glue: ``datagram_received`` *is* the owning transport's
    bound ``_on_datagram``, so a datagram crosses no trampoline."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner
        self.datagram_received = owner._on_datagram  # type: ignore[assignment]

    def error_received(self, exc: Exception) -> None:
        self._owner.socket_errors += 1


class UdpTransport:
    """One node's UDP endpoint; implements the ``Transport`` protocol.

    Create with :meth:`open` (binds the socket).  ``attach()`` returns
    the packed local address; a second ``attach()`` raises — one socket,
    one node.
    """

    def __init__(self) -> None:
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._local_addr: Optional[Address] = None
        self._attached = False
        self._handlers: Dict[Address, Handler] = {}
        self._owners: Dict[Address, Any] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped_dead = 0
        self.messages_malformed = 0
        self.socket_errors = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    async def open(cls, host: str = "127.0.0.1", port: int = 0,
                   loop: Optional[asyncio.AbstractEventLoop] = None,
                   ) -> "UdpTransport":
        """Bind a UDP socket on ``host:port`` (port 0 = OS-assigned)."""
        self = cls()
        loop = loop if loop is not None else asyncio.get_event_loop()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self), local_addr=(host, port))
        transport.max_size = _RECV_BUFFER  # type: ignore[attr-defined]
        self._transport = transport
        bound_host, bound_port = transport.get_extra_info("sockname")[:2]
        self._local_addr = pack_addr(bound_host, bound_port)
        return self

    # ------------------------------------------------------------------
    # Transport protocol surface
    # ------------------------------------------------------------------
    def attach(self) -> Address:
        if self._local_addr is None:
            raise RuntimeError("transport is not open")
        if self._attached:
            raise RuntimeError(
                "UdpTransport carries exactly one node per socket; "
                "open a second transport for a second node")
        self._attached = True
        return self._local_addr

    def register(self, address: Address, handler: Handler,
                 owner: Any = None) -> None:
        if address != self._local_addr:
            raise ValueError(
                f"cannot register foreign address {address} on a socket "
                f"bound to {self._local_addr}")
        self._handlers[address] = handler
        if owner is not None:
            self._owners[address] = owner

    def deregister(self, address: Address) -> None:
        self._handlers.pop(address, None)
        self._owners.pop(address, None)

    def is_registered(self, address: Address) -> bool:
        return address in self._handlers

    def owner_of(self, address: Address) -> Optional[Any]:
        return self._owners.get(address)

    def addresses(self) -> List[Address]:
        return list(self._handlers)

    def send(self, src: Address, dst: Address, msg: Any) -> None:
        if self._transport is None or self._transport.is_closing():
            return  # shutting down; drops mirror crash-stop semantics
        try:
            data = encode_frame(msg)
        except WireError:
            self.messages_malformed += 1
            log.exception("unencodable message dropped")
            return
        self.messages_sent += 1
        self.bytes_sent += len(data)
        self._transport.sendto(data, unpack_addr(dst))

    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, peer: Tuple[str, int]) -> None:
        self.bytes_received += len(data)
        try:
            src = pack_addr(peer[0], peer[1])
            msg, end = decode_frame(data)
            if end != len(data):
                raise WireError(f"{len(data) - end} stray byte(s) in datagram")
        except ValueError:  # a WireError, or pack_addr refusing source port 0
            self.messages_malformed += 1
            return
        if self._local_addr is None:
            return
        handler = self._handlers.get(self._local_addr)
        if handler is None:
            self.messages_dropped_dead += 1
            return
        self.messages_delivered += 1
        try:
            handler(src, msg)
        except Exception:
            # A handler exception must not unwind into the event loop's
            # datagram machinery; surface it in the log and keep serving.
            log.exception("message handler failed")

    def close(self) -> None:
        """Close the socket; in-flight sends are dropped (crash-stop)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    @property
    def local_address(self) -> Optional[Address]:
        return self._local_addr

    def counters(self) -> Dict[str, int]:
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped_dead": self.messages_dropped_dead,
            "messages_malformed": self.messages_malformed,
            "socket_errors": self.socket_errors,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
