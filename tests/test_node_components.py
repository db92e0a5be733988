"""The node's state pieces and handler table, alone on a fake clock.

No overlay is built: ``ProbeTable``, ``FailureMemory`` and ``RecencyMap``
are driven directly, and the one ``MSPastryNode`` here talks to a transport
that only records.  The exception is the last test, which needs the real
transport's loopback to show a self-addressed descriptor doing harm.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import invariants
from repro.overlay.invariants import KINDS, InvariantChecker
from repro.overlay.oracle import Oracle
from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import FAILED_MEMORY, PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import NodeDescriptor
from repro.pastry.state import (
    MAX_FAILED_REMEMBERED, FailureMemory, ProbeTable, RecencyMap,
)


class FakeHandle:
    def __init__(self, time, callback, args):
        self.time, self.callback, self.args = time, callback, args
        self.active = True

    def cancel(self):
        self.active = False


class FakeClock:
    """``Clock`` whose time only moves when :meth:`advance` is called."""

    def __init__(self):
        self.now = 0.0
        self.log = []
        self._handles = []

    def schedule(self, delay, callback, *args):
        handle = FakeHandle(self.now + delay, callback, args)
        self._handles.append(handle)
        self.log.append(("arm", args))
        return handle

    def advance(self, dt):
        self.now += dt
        due = [h for h in self._handles if h.active and h.time <= self.now]
        for handle in sorted(due, key=lambda h: h.time):
            if handle.active:
                handle.active = False
                handle.callback(*handle.args)


class RecordingTransport:
    def __init__(self):
        self.sent = []

    def attach(self):
        return 1

    def register(self, address, handler, owner=None):
        pass

    def deregister(self, address):
        pass

    def send(self, src, dst, msg):
        self.sent.append((dst, msg))


def descs(n):
    return [NodeDescriptor(1000 + i, 10 + i) for i in range(n)]


# ----------------------------------------------------------------------
# ProbeTable
# ----------------------------------------------------------------------
def probe_table(clock):
    exhausted = []
    table = ProbeTable(
        clock, 3.0,
        send=lambda targets: clock.log.append(("send", tuple(d.id for d in targets))),
        exhausted=exhausted.append,
    )
    return table, exhausted


def test_start_all_arms_every_timer_before_the_first_send():
    clock = FakeClock()
    table, _ = probe_table(clock)
    targets = descs(4)
    table.start_all(targets)
    ids = tuple(d.id for d in targets)
    assert clock.log == [("arm", (i,)) for i in ids] + [("send", ids)]
    assert set(table.pending) == set(ids)
    table.start_all([])
    assert len(clock.log) == 5  # an empty burst arms and sends nothing


def test_exhausted_after_exactly_max_retries_resends_still_pending():
    clock = FakeClock()
    table, exhausted = probe_table(clock)
    (target,) = descs(1)
    table.start(target)

    def sends():
        return sum(1 for event in clock.log if event[0] == "send")

    assert sends() == 1
    clock.advance(3.0)
    clock.advance(3.0)
    assert sends() == 3 and exhausted == []  # the original + 2 resends
    clock.advance(3.0)
    assert sends() == 3 and exhausted == [target]
    assert target.id in table.pending  # the owner decides when it leaves
    table.resolve(target.id)
    assert not table.pending


def test_resolve_and_cancel_all_stop_the_retries():
    clock = FakeClock()
    table, exhausted = probe_table(clock)
    a, b, c = descs(3)
    table.start_all([a, b, c])
    table.resolve(a.id)
    table.resolve(a.id)  # answered twice: harmless
    table.cancel_all()
    before = len(clock.log)
    clock.advance(30.0)
    assert len(clock.log) == before and exhausted == [] and not table.pending


# ----------------------------------------------------------------------
# FailureMemory
# ----------------------------------------------------------------------
MEMORY = FAILED_MEMORY
POOL = descs(6)


def all_relevant(descs):
    """The relevance answer of a leaf set that would admit every entry."""
    return {desc.id for desc in descs}


_ids = st.integers(0, len(POOL) - 1)
_op = st.one_of(
    st.tuples(st.just("mark"), _ids),
    st.tuples(st.just("forget"), _ids),
    st.tuples(st.just("clear_stale"), st.sets(_ids)),
    st.tuples(st.just("expire"), st.sets(_ids)),
    st.tuples(st.just("read"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 200.0), _op), max_size=40))
def test_advertised_equals_recomputation_from_scratch(steps):
    memory = FailureMemory()
    now = 0.0
    for dt, (op, arg) in steps:
        now += dt
        if op == "mark":
            memory.mark(POOL[arg], now, all_relevant)
        elif op == "forget":
            memory.forget(POOL[arg].id)
        elif op == "clear_stale":
            memory.clear_stale(lambda descs, keep=arg: {1000 + i for i in keep})
        elif op == "expire":
            for desc in memory.expire(now, lambda descs, keep=arg: {1000 + i for i in keep}):
                assert desc.id not in memory.failed
        got = memory.advertised(now)
        assert list(got) == [
            desc for node_id, desc in memory.failed.items()
            if memory.failed_at[node_id] >= now - MEMORY
        ]
        assert isinstance(got, tuple)  # one immutable snapshot, shared by its callers
        assert set(memory.failed) == set(memory.failed_at) <= set(memory.backoff)


def test_mark_reports_news_once_and_backs_off():
    memory = FailureMemory()
    (victim,) = descs(1)
    assert memory.mark(victim, 0.0, all_relevant) is True
    assert memory.expire(MEMORY, all_relevant) == [victim]
    assert memory.mark(victim, MEMORY + 9.0, all_relevant) is False
    assert memory.backoff[victim.id] == 2 * MEMORY
    assert memory.expire(2 * MEMORY, all_relevant) == []  # not yet
    memory.forget(victim.id)
    assert not memory.failed and not memory.failed_at and not memory.backoff


def _full_memory():
    """A memory holding ``MAX_FAILED_REMEMBERED`` failures, one a second
    (none is evicted yet, so none is asked whether it is leaf-relevant),
    and the descriptor of one failure more."""
    memory = FailureMemory()
    *held, newcomer = descs(MAX_FAILED_REMEMBERED + 1)
    for t, desc in enumerate(held):
        assert memory.mark(desc, float(t), all_relevant)
    return memory, held, newcomer


def test_full_memory_evicts_the_first_entry_not_leaf_relevant():
    memory, held, newcomer = _full_memory()
    leaf = {held[0].id, held[1].id}  # the two oldest belong in the leaf set
    assert memory.mark(newcomer, 200.0, lambda descs: leaf)
    evicted = held[2].id
    assert evicted not in memory.failed and evicted not in memory.failed_at
    assert evicted not in memory.backoff  # forgotten: a new failure is news
    assert list(memory.failed) == [d.id for d in held if d.id != evicted] + [newcomer.id]
    assert set(memory.failed) == set(memory.failed_at) == set(memory.backoff)
    assert memory.mark(held[2], 201.0, all_relevant) is True
    assert memory.backoff[evicted] == MEMORY


def test_full_memory_of_leaf_relevant_entries_evicts_the_oldest_keeping_its_backoff():
    memory, held, newcomer = _full_memory()
    assert memory.mark(newcomer, 200.0, all_relevant)
    oldest = held[0].id
    assert oldest not in memory.failed and oldest not in memory.failed_at
    assert memory.backoff[oldest] == MEMORY  # kept: the re-probe cadence holds
    assert list(memory.failed) == [d.id for d in held[1:]] + [newcomer.id]
    assert len(memory.failed) == MAX_FAILED_REMEMBERED
    # failing again is old news, and the kept backoff doubles
    assert memory.mark(held[0], 201.0, all_relevant) is False
    assert memory.backoff[oldest] == 2 * MEMORY


# ----------------------------------------------------------------------
# RecencyMap
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 20.0), st.integers(0, 600)),
                max_size=600))
def test_recency_map_never_drops_what_a_reader_could_see(writes):
    horizon = 30.0
    recency, reference = RecencyMap(horizon), {}
    now = 0.0
    for dt, key in writes:
        now += dt
        reference[key] = recency[key] = now
        if len(recency) >= recency.cap:  # the writers' idiom
            recency.sweep(now)
        assert len(recency) <= max(128, recency.cap)
    visible = {k: t for k, t in reference.items() if t > now - horizon}
    assert {k: recency.get(k) for k in visible} == visible
    recency.sweep(now)
    assert dict(recency) == visible


# ----------------------------------------------------------------------
# Handler table
# ----------------------------------------------------------------------
class Unregistered(m.Message):
    category = "unknown"


def test_unregistered_message_class_is_dropped_without_side_effects():
    clock, transport = FakeClock(), RecordingTransport()
    node = MSPastryNode(clock, transport, PastryConfig(leaf_set_size=8),
                        5000, random.Random(1))
    node.join(None)
    peer, dead = descs(2)
    node.leaf_set.add(peer)
    node.routing_table.add(peer)
    node.failures.mark(dead, clock.now, all_relevant)

    def state():
        return (list(node.leaf_set.members()), list(node.routing_table.entries()),
                dict(node.failures.failed), dict(node.failures.backoff),
                set(node.probing.pending), len(transport.sent))

    before = state()
    assert Unregistered not in MSPastryNode._HANDLERS
    node._on_message(peer.addr, Unregistered(sender=peer))
    node._on_message(99, Unregistered())  # no sender at all
    assert state() == before
    assert node.last_heard[peer.id] == clock.now  # the bookkeeping still ran


# ----------------------------------------------------------------------
# Admission: a foreign id at our own address
# ----------------------------------------------------------------------
def test_foreign_id_at_own_address_is_never_routing_state(monkeypatch):
    """A wire-valid sender pairing a foreign id with the *receiver's* address
    used to be admitted; a join request for a neighbouring id was then
    forwarded to ourselves, acked and forwarded again at one timestamp,
    without end."""
    sim, net, nodes = build_overlay(4, config=PastryConfig(leaf_set_size=8), seed=5)
    node = nodes[0]
    assert node.addr == 0
    phantom = NodeDescriptor(node.id ^ 1, 0)
    for hostile in (m.Heartbeat(sender=phantom), m.LsProbe(sender=phantom),
                    m.RtProbe(sender=phantom)):
        node._on_message(0, hostile)
    assert phantom.id not in node.leaf_set
    assert phantom.id not in node.routing_table
    assert phantom.id not in node.probing.pending

    self_sends = []
    send = net.send

    def spy(src, dst, msg):
        if src == dst:
            self_sends.append(msg)
        send(src, dst, msg)

    net.send = spy
    # a joiner whose id the phantom, not the node, would be root of
    step = -1 if phantom.id < node.id else 1
    joiner = NodeDescriptor(phantom.id + step, 99)
    node._on_message(nodes[1].addr, m.JoinRequest(
        msg_id=7, joiner=joiner, sender=nodes[1].descriptor))
    sim.run(until=sim.now + 5.0, max_events=20_000)
    assert self_sends == []

    oracle = Oracle()
    for member in nodes:
        oracle.node_alive(member)
        oracle.node_activated(member)
    monkeypatch.setattr(invariants, "LEAF_GRACE", 0.0)
    monkeypatch.setattr(invariants, "RT_GRACE", 0.0)
    checker = InvariantChecker(sim, oracle)
    checker.stop()
    assert checker.check_now() == {kind: 0 for kind in KINDS}
