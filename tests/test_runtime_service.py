"""NodeService: bookkeeping that must stay bounded over a long life, and the
datagram entry against wire-valid frames no honest node sends."""

import asyncio
import json

import pytest

from repro.pastry import messages as m
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import NodeDescriptor
from repro.runtime.service import LATENCY_WINDOW, NodeService
from repro.runtime.transport import pack_addr
from repro.runtime.wire import decode_frame, wire_types
from tests.test_golden_traces import GOLDEN_DIR


def test_snapshot_latency_is_a_bounded_window():
    """A ``repro serve`` node delivers for days: what it keeps per delivery
    is a fixed window, and ``latency_ms_p50`` is the median of that."""
    async def main():
        service = await NodeService.start(node_id=7, rng_seed=7)
        assert service.snapshot()["lookups"]["latency_ms_p50"] is None
        n = 10_000
        assert n > LATENCY_WINDOW
        for i in range(n):
            # 10 s lookups first, then a window's worth of 1 s ones
            latency = 10.0 if i < n - LATENCY_WINDOW else 1.0
            service._on_deliver(service.node, m.Lookup(
                msg_id=i, key=i, sent_at=service.clock.now - latency))
        lookups = service.snapshot()["lookups"]
        await service.stop()
        assert lookups["delivered_here"] == n  # counters cover the whole life
        assert len(service._latencies) == LATENCY_WINDOW
        assert not hasattr(service, "_hops")
        assert 1000.0 <= lookups["latency_ms_p50"] < 1100.0
    asyncio.run(main())


def test_served_snapshot_carries_every_debug_state_field():
    """One node view: the endpoint serves the node's whole ``debug_state()``
    (suspects, probes, acks in flight, probe period, ...), ``id`` as hex."""
    async def main():
        service = await NodeService.start(node_id=7, rng_seed=7, metrics_port=0)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.metrics.port)
            writer.write(b"GET / HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return json.loads(raw.partition(b"\r\n\r\n")[2]), service.node.debug_state()
        finally:
            await service.stop()

    served, state = asyncio.run(main())
    assert sorted(set(state) - set(served)) == []
    assert served["id"] == f"{state['id']:032x}"
    assert served["schema"] == "repro-node/1"
    assert (served["suspected"], served["active"]) == (state["suspected"], True)


# ----------------------------------------------------------------------
# Wire-valid frames whose optional descriptors are absent
# ----------------------------------------------------------------------
def _routing_state(node):
    return (node.leaf_set.members(), list(node.routing_table.entries()),
            dict(node.failures.failed))


def _dispatch_to_idle_node(msg):
    """Hand ``msg`` to a started, idle (first, hence active) node's datagram
    entry: nothing may raise, be sent, or change.  Returns what it counted."""
    async def main():
        service = await NodeService.start(node_id=7, rng_seed=7)
        try:
            assert service.is_active
            before = _routing_state(service.node)
            service._dispatch(service.node.addr + 1, msg)
            assert service.transport.messages_sent == 0
            assert _routing_state(service.node) == before
            return service.transport.messages_malformed
        finally:
            await service.stop()
    return asyncio.run(main())


@pytest.mark.parametrize("cls", wire_types(), ids=lambda cls: cls.__name__)
def test_senderless_frame_is_dropped_and_counted(cls):
    """Flags bit 0 is optional on the wire and the handlers dereference the
    sender: the pinned ``*/bare`` frame of every type stops at the door."""
    frames = json.loads((GOLDEN_DIR / "wire_frames.json").read_text())["frames"]
    msg, _ = decode_frame(bytes.fromhex(frames[f"{cls.__name__}/bare"]))
    assert type(msg) is cls and msg.sender is None
    assert _dispatch_to_idle_node(msg) == 1


def test_join_request_without_joiner_is_dropped_unacked():
    peer = NodeDescriptor(id=1 << 100, addr=pack_addr("127.0.0.1", 9))
    request = m.JoinRequest(sender=peer, msg_id=5, joiner=None)
    assert _dispatch_to_idle_node(request) == 0  # not noise: the handler's guard


def test_handler_table_lists_exactly_the_schema():
    assert set(MSPastryNode._HANDLERS) == {cls for _, cls, _ in m.SCHEMA}
