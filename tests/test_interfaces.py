"""The Transport/Clock seam (repro.interfaces): what it declares, that both
substrates satisfy it, and that it is all the protocol needs.

The Protocols are ``runtime_checkable``, so structural conformance is
asserted directly on real instances of both implementations.  The typed
helper functions double as static conformance checks: mypy verifies the
implicit Simulator->Clock and Network->Transport assignments compile
(these are the assignments ``MSPastryNode.__init__`` relies on).  The
stubs at the end expose the seam and nothing else, so an overlay that
joins and routes over them shows the seam is sufficient.
"""

import asyncio
import random

from repro.interfaces import Address, Clock, Handler, TimerHandle, Transport
from repro.network.simple import UniformDelayTopology
from repro.network.transport import Network
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid, root_among
from repro.runtime.clock import AsyncioClock
from repro.runtime.transport import UdpTransport
from repro.sim.engine import Simulator

#: what the simulator offers beyond the seam: no live substrate writes it
SIMULATOR_ONLY = {"schedule_call", "is_registered", "owner_of", "addresses"}


def _as_clock(clock: Clock) -> Clock:
    return clock


def _as_transport(transport: Transport) -> Transport:
    return transport


def _members(protocol) -> set:
    return {name for name in vars(protocol) if not name.startswith("_")}


def test_the_seam_declares_what_the_protocol_calls():
    """Widening the seam is a deliberate edit of this test: every member is
    one more method each new substrate writes."""
    assert _members(Clock) == {"now", "schedule"}
    assert _members(Transport) == {"attach", "register", "deregister", "send"}
    assert _members(TimerHandle) == {"time", "active", "cancel"}
    for cls in (AsyncioClock, UdpTransport):
        assert not SIMULATOR_ONLY & set(dir(cls)), cls


def test_simulator_satisfies_clock_protocol():
    sim = Simulator()
    assert isinstance(sim, Clock)
    clock = _as_clock(sim)
    handle = clock.schedule(1.0, lambda: None)
    assert isinstance(handle, TimerHandle)
    assert handle.active and handle.time == 1.0
    handle.cancel()
    assert not handle.active
    assert clock.now == 0.0


def test_asyncio_clock_satisfies_clock_protocol():
    async def main():
        clock = _as_clock(AsyncioClock())
        assert isinstance(clock, Clock)
        handle = clock.schedule(5.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        assert handle.active
        handle.cancel()
        assert not handle.active
        clock.close()
    asyncio.run(main())


def test_sim_network_satisfies_transport_protocol():
    sim = Simulator()
    network = Network(sim, UniformDelayTopology(0.01), random.Random(1))
    assert isinstance(network, Transport)
    transport = _as_transport(network)
    addr = transport.attach()
    received = []
    transport.register(addr, lambda src, msg: received.append(msg),
                       owner="node")
    transport.send(addr, addr, "hello")
    sim.run()
    assert received == ["hello"]
    transport.deregister(addr)
    transport.send(addr, addr, "gone")
    sim.run()
    assert received == ["hello"]
    assert network.messages_dropped_dead == 1


def test_udp_transport_satisfies_transport_protocol():
    async def main():
        transport = await UdpTransport.open()
        assert isinstance(transport, Transport)
        _as_transport(transport)
        transport.close()
    asyncio.run(main())


def test_both_clocks_share_timer_consumption_semantics():
    """A fired timer reports inactive on both substrates — protocol timer
    bookkeeping (``handle.active`` checks in acks.py/node.py) relies on it.
    """
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "sim")
    sim.run()
    assert fired and not handle.active

    async def main():
        clock = AsyncioClock()
        handle = clock.schedule(0.01, fired.append, "real")
        await asyncio.sleep(0.05)
        assert not handle.active
        clock.close()
    asyncio.run(main())
    assert fired == ["sim", "real"]


# ----------------------------------------------------------------------
# The seam is sufficient: an overlay over stubs that expose nothing else
# ----------------------------------------------------------------------
class SeamClock:
    """``now`` and ``schedule`` over a :class:`Simulator`, and no more."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now

    def schedule(self, delay, callback, *args) -> TimerHandle:
        return self._sim.schedule(delay, callback, *args)


class SeamTransport:
    """The four Transport methods over a :class:`Network`, and no more."""

    __slots__ = ("_network",)

    def __init__(self, network: Network) -> None:
        self._network = network

    def attach(self) -> Address:
        return self._network.attach()

    def register(self, address: Address, handler: Handler,
                 owner=None) -> None:
        self._network.register(address, handler, owner)

    def deregister(self, address: Address) -> None:
        self._network.deregister(address)

    def send(self, src: Address, dst: Address, msg) -> None:
        self._network.send(src, dst, msg)


def test_an_overlay_joins_and_routes_over_the_seam_alone():
    sim = Simulator()
    network = Network(sim, UniformDelayTopology(0.05), random.Random(7))
    clock = _as_clock(SeamClock(sim))
    transport = _as_transport(SeamTransport(network))
    assert isinstance(clock, Clock) and isinstance(transport, Transport)
    rng = random.Random(11)
    delivered = []
    nodes = []
    for i in range(6):
        node = MSPastryNode(
            clock, transport, PastryConfig(leaf_set_size=8), random_nodeid(rng),
            rng, on_deliver=lambda node, msg: delivered.append((node.id, msg.key)))
        node.join(nodes[0].descriptor if nodes else None)
        nodes.append(node)
        sim.run(until=sim.now + 5.0)
    sim.run(until=sim.now + 60.0)
    assert all(node.active for node in nodes)

    ids = sorted(node.id for node in nodes)
    keys = [random_nodeid(rng) for _ in range(20)]
    for i, key in enumerate(keys):
        source = nodes[i % len(nodes)]
        source.route_lookup(source.make_lookup(key))
    sim.run(until=sim.now + 30.0)
    assert sorted(delivered) == sorted((root_among(ids, key), key) for key in keys)
