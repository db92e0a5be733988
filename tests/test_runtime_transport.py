"""UdpTransport: the Transport seam over real localhost sockets.

Covers address packing, one-socket-one-node attachment, real datagram
delivery between two transports, malformed-datagram tolerance, and
crash-stop close semantics.
"""

import asyncio

import pytest

from repro.pastry import messages as m
from repro.pastry.nodeid import intern_descriptor
from repro.runtime.transport import UdpTransport, pack_addr, unpack_addr
from repro.runtime.wire import encode_frame


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Address packing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("host,port", [
    ("127.0.0.1", 1), ("127.0.0.1", 65535), ("10.1.2.3", 9000),
    ("255.255.255.255", 12345), ("0.0.0.0", 80),
])
def test_pack_unpack_addr_roundtrip(host, port):
    assert unpack_addr(pack_addr(host, port)) == (host, port)


def test_pack_addr_rejects_bad_ports():
    for port in (0, -1, 65536):
        with pytest.raises(ValueError):
            pack_addr("127.0.0.1", port)


def test_packed_addr_fits_48_bits():
    assert pack_addr("255.255.255.255", 65535) < (1 << 48)


# ----------------------------------------------------------------------
# Attachment discipline
# ----------------------------------------------------------------------
def test_attach_returns_local_addr_once():
    async def main():
        transport = await UdpTransport.open()
        addr = transport.attach()
        assert addr == transport.local_address
        host, port = unpack_addr(addr)
        assert host == "127.0.0.1" and port > 0
        with pytest.raises(RuntimeError, match="one node per socket"):
            transport.attach()
        transport.close()
    run(main())


def test_register_rejects_foreign_address():
    async def main():
        transport = await UdpTransport.open()
        addr = transport.attach()
        with pytest.raises(ValueError, match="foreign"):
            transport.register(addr + 1, lambda s, msg: None)
        transport.register(addr, lambda s, msg: None, owner="me")
        assert transport.is_registered(addr)
        assert transport.owner_of(addr) == "me"
        assert transport.addresses() == [addr]
        transport.deregister(addr)
        assert not transport.is_registered(addr)
        transport.close()
    run(main())


# ----------------------------------------------------------------------
# Real delivery
# ----------------------------------------------------------------------
async def _pair():
    a = await UdpTransport.open()
    b = await UdpTransport.open()
    return a, a.attach(), b, b.attach()


async def _drain(predicate, timeout=2.0):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "timed out waiting for delivery"
        await asyncio.sleep(0.005)


def test_send_delivers_between_sockets():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        got = []
        b.register(addr_b, lambda src, msg: got.append((src, msg)))
        desc = intern_descriptor(42, addr_a)
        a.send(addr_a, addr_b, m.Lookup(msg_id=7, key=9, source=desc,
                                        sent_at=1.0, sender=desc))
        await _drain(lambda: got)
        src, msg = got[0]
        assert src == addr_a          # recovered from the UDP peer endpoint
        assert isinstance(msg, m.Lookup)
        assert msg.msg_id == 7 and msg.key == 9
        assert msg.sender.addr == addr_a
        assert a.messages_sent == 1 and b.messages_delivered == 1
        a.close(); b.close()
    run(main())


def test_datagram_to_dead_node_is_counted():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        # no handler registered at b
        a.send(addr_a, addr_b, m.Heartbeat())
        await _drain(lambda: b.messages_dropped_dead == 1)
        assert b.messages_delivered == 0
        a.close(); b.close()
    run(main())


def test_malformed_datagrams_are_dropped_not_fatal():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        got = []
        b.register(addr_b, lambda src, msg: got.append(msg))
        host, port = unpack_addr(addr_b)
        raw_transport = a._transport
        raw_transport.sendto(b"garbage", (host, port))
        raw_transport.sendto(encode_frame(m.Heartbeat()) + b"\xff", (host, port))
        a.send(addr_a, addr_b, m.Heartbeat())  # a real one still arrives
        await _drain(lambda: got)
        assert b.messages_malformed == 2
        assert len(got) == 1
        a.close(); b.close()
    run(main())


def test_handler_exception_does_not_kill_the_transport():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        got = []

        def handler(src, msg):
            got.append(msg)
            if len(got) == 1:
                raise RuntimeError("first delivery explodes")

        b.register(addr_b, handler)
        a.send(addr_a, addr_b, m.Heartbeat())
        a.send(addr_a, addr_b, m.Heartbeat())
        await _drain(lambda: len(got) == 2)
        assert b.messages_delivered == 2
        a.close(); b.close()
    run(main())


def test_send_after_close_is_a_silent_drop():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        a.close()
        a.send(addr_a, addr_b, m.Heartbeat())  # crash-stop: no raise
        assert a.messages_sent == 0
        b.close()
    run(main())


def test_counters_shape():
    async def main():
        a = await UdpTransport.open()
        counters = a.counters()
        assert set(counters) == {
            "messages_sent", "messages_delivered", "messages_dropped_dead",
            "messages_malformed", "socket_errors", "bytes_sent",
            "bytes_received",
        }
        a.close()
    run(main())


# ----------------------------------------------------------------------
# Receive buffer
# ----------------------------------------------------------------------
def test_receive_buffer_fits_any_datagram_and_stays_off_mmap():
    """asyncio reads every datagram into a fresh ``max_size`` buffer.  Its
    256 KiB default is above glibc's 128 KiB mmap threshold, so each read
    would map and unmap pages; the largest IPv4 UDP payload is 65,507 B."""
    async def main():
        transport = await UdpTransport.open()
        assert 65507 <= transport._transport.max_size < 131072
        transport.close()
    run(main())


def test_a_frame_over_60_kb_arrives_whole():
    async def main():
        a, addr_a, b, addr_b = await _pair()
        got = []
        b.register(addr_b, lambda src, msg: got.append(msg))
        payload = bytes(range(256)) * 240  # 61,440 B
        a.send(addr_a, addr_b, m.Lookup(msg_id=1, key=2, payload=payload))
        await _drain(lambda: got)
        assert got[0].payload == payload
        assert b.messages_malformed == 0
        assert b.bytes_received == a.bytes_sent > 60_000
        a.close(); b.close()
    run(main())
