"""One fuzzer for the overlay: a Hypothesis state machine.

The paper's claim is that MSPastry routes consistently and repairs itself
under churn, loss and partitions.  :class:`OverlayFuzz` drives a settled
``build_overlay(<= 16, l = 8)`` overlay through any interleaving of

* joins, crashes, lookup batches and ``advance(dt)``.  A crash keeps
  ``MIN_ACTIVE`` nodes active and stays inside the paper's assumption:
  fewer than l/2 failed nodes that some leaf set still lists (l/2 adjacent
  ones at once leave a side with no live member to route by);
* ``Partition``, ``BurstLoss``, ``LinkJitter``, ``GrayFailures`` (stuck,
  slow, lossy) and ``AdversaryFault`` (any ``BEHAVIORS`` mix), each struck
  for a drawn duration: ``apply`` now, ``revert`` when it is up;
* hostile datagrams: any message of ``messages.SCHEMA`` (``conftest``'s
  ``wire_messages``) or a replayed join reply, through ``encode_frame →
  decode_frame`` and into ``_on_message`` of a live node,

and holds it to:

* after every step: nothing raises; no run of the simulator executes more
  than ``EVENTS_PER_S`` events per simulated second; a lookup issued while
  no fault, attack or injection is in effect or recent (``EXCUSES``) is
  delivered, at the oracle's root;
* at teardown, every fault reverted and ``QUIET`` seconds later: a clean
  ``InvariantChecker.check_now`` (but for one pinned finding), no crashed
  id in any leaf set, and every lookup delivered at its root.

Tier-1 replays one fixed derandomized search.  ``--hypothesis-profile=ci``
(registered in ``conftest.py``) runs about twenty times as many examples on
a fresh seed.  Hypothesis prints a failure as the step list that reproduces
it; commit that list as a plain test, as the tests below the machine
are.
"""

import random
import sys

import pytest
from hypothesis import HealthCheck, Phase, currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.adversary import BEHAVIORS, AdversaryFault
from repro.faults import (
    BurstLoss,
    FaultState,
    GEParams,
    GrayFailure,
    GrayFailures,
    JitterParams,
    LinkJitter,
    Partition,
)
from repro.faults.schedule import _Context
from repro.overlay.invariants import InvariantChecker
from repro.overlay.oracle import Oracle
from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import intern_descriptor, random_nodeid
from repro.runtime.wire import decode_frame, encode_frame
from tests.conftest import MAX_U64, ids, wire_messages

CONFIG = PastryConfig(leaf_set_size=8)
MIN_ACTIVE = 6
MAX_ALIVE = 24
#: a settled overlay runs ~2.3 events per simulated second, and no run of
#: the simulator in a 400-example search ran more than 160; the phantom
#: self-send loop ran 263k at one instant
EVENTS_PER_S = 1000
QUIET = 900.0  # one state-sweep period: every cleanup guarantee has run
LOOKUP_WAIT = 60.0  # s a lookup batch is given to be delivered
#: addresses no node is attached at (the topology numbers them from 0)
UNBOUND_ADDRS = st.integers(1 << 32, MAX_U64)
#: ids no node has: injected descriptors name them, and lookups for them
#: go wherever those descriptors say such a node lives
NOBODY = tuple(random.Random(0).getrandbits(128) for _ in range(2))
keys = ids | st.sampled_from(NOBODY)
#: the leaf-set exchange, drawn as often as every other type together: it
#: is the consistency core, and its sender is admitted without a probe
LEAF_SET_INFO = [e for e in m.SCHEMA if e[1] in (m.LsProbe, m.LsProbeReply)]

attacks = st.builds(AdversaryFault, fraction=st.floats(0.05, 0.3), mix=st.lists(
    st.sampled_from(sorted(BEHAVIORS)), min_size=1, max_size=3, unique=True).map(tuple))
faults = st.one_of(
    st.builds(Partition, fraction=st.floats(0.2, 0.8)),
    st.builds(BurstLoss, st.builds(GEParams.with_average, st.floats(0.01, 0.1))),
    st.builds(LinkJitter, st.builds(
        JitterParams, jitter=st.floats(0.001, 0.05), spike_prob=st.just(0.05),
        spike_mean=st.just(0.2))),
    st.builds(GrayFailures, fraction=st.floats(0.1, 0.4), profile=st.sampled_from(
        [GrayFailure.stuck(), GrayFailure.slow(factor=8.0), GrayFailure.lossy(0.6)])),
    attacks,
)


def _fired(name):
    """Count ``name`` in ``--hypothesis-show-statistics`` (a step replayed
    as a plain test runs outside Hypothesis)."""
    if currently_in_test_context():
        event(name)


class _JoinReplies:
    """A ``Network.stats`` that keeps the frame of every join reply sent."""

    def __init__(self):
        self.frames = []

    def on_send(self, msg, src, dst, now):
        if msg.__class__ is m.JoinReply:
            self.frames.append(encode_frame(msg))


class OverlayFuzz(RuleBasedStateMachine):
    #: what excuses a lookup from the delivery check while it is in effect,
    #: and for how many seconds after: a partition, burst loss or gray
    #: failure until failure memory has re-probed (its backoff reaches
    #: 600 s); jitter, an attack or an injected datagram until the probes
    #: they caused have timed out
    EXCUSES = {"Partition": QUIET, "BurstLoss": QUIET, "GrayFailures": QUIET,
               "LinkJitter": 60.0, "AdversaryFault": 60.0, "inject": 60.0}
    #: invariant kinds the teardown sweep leaves out: after a crash a
    #: one-sided pair can outlast the quiet period (see
    #: test_a_neighbour_suppressed_while_pruned_* below)
    UNCHECKED = ("leafset_mutual",)

    @initialize(n=st.integers(8, 16), seed=st.integers(0, 1 << 16))
    def build(self, n, seed):
        self.sim, self.network, self.nodes = build_overlay(n, config=CONFIG, seed=seed)
        self.rng = random.Random(seed)
        self.oracle = Oracle()
        for node in self.nodes:
            self._enrol(node)
            self.oracle.node_activated(node)
        self.replies = self.network.stats = _JoinReplies()
        self.network.faults = FaultState(self.sim, random.Random(seed + 1))
        self.ctx = _Context(self.network.faults, self.network, random.Random(seed + 2))
        self.on = {}  # fault kind -> (the fault, its revert timer)
        self.last_seen = {}  # fault kind or "inject" -> when last in effect
        self.delivered = {}  # lookup msg_id -> [delivered at the root?, ...]

    def _enrol(self, node):
        self.oracle.node_alive(node)
        node.on_active = self.oracle.node_activated
        node.on_deliver = self._on_deliver

    def _on_deliver(self, node, msg):
        self.delivered.setdefault(msg.msg_id, []).append(
            node.id == self.oracle.root_of(msg.key))

    def _alive(self):
        return [node for node in self.nodes if not node.crashed]

    def _active(self):
        return [node for node in self.nodes if node.active]

    def _may_crash(self):
        listed = {d.id for node in self._active() for d in node.leaf_set.members()}
        unrepaired = listed.difference(n.id for n in self._alive())
        return (self.oracle.active_count > MIN_ACTIVE
                and len(unrepaired) < CONFIG.leaf_set_size // 2 - 1)

    def _calm(self):
        now = self.sim.now
        return all(kind not in self.on and now - self.last_seen.get(kind, -wait) >= wait
                   for kind, wait in self.EXCUSES.items())

    def _run(self, dt):
        sim = self.sim
        before, limit = sim.events_executed, int(EVENTS_PER_S * dt)
        sim.run(until=sim.now + dt, max_events=limit)
        ran = sim.events_executed - before
        assert ran < limit, f"{ran} events in {dt:g} simulated seconds"

    def _lookups(self, keys):
        """Every active node looks each key up; returns the fraction of the
        lookups delivered, all at the root, ``LOOKUP_WAIT`` seconds later."""
        calm = self._calm()
        sent = [node.lookup(key) for key in keys for node in self._active()]
        self._run(LOOKUP_WAIT)
        correct = [all(self.delivered.get(msg.msg_id) or [False]) for msg in sent]
        assert not calm or all(correct), (
            f"{correct.count(False)} of {len(sent)} lookups lost or misdelivered")
        return correct.count(True) / len(sent)

    # ------------------------------------------------------------------
    # Churn, lookups, time
    # ------------------------------------------------------------------
    @precondition(lambda self: len(self._alive()) < MAX_ALIVE)
    @rule(via=st.integers(0, 63))
    def join(self, via):
        _fired("join")
        active = self._active()
        node = MSPastryNode(self.sim, self.network, CONFIG,
                            random_nodeid(self.rng), self.rng)
        self.nodes.append(node)
        self._enrol(node)
        node.join(active[via % len(active)].descriptor, seed_provider=self._seed)

    def _seed(self):
        return self.rng.choice(self._active()).descriptor

    @precondition(lambda self: self._may_crash())
    @rule(which=st.integers(0, 63))
    def crash(self, which):
        _fired("crash")
        alive = self._alive()
        node = alive[which % len(alive)]
        node.crash()
        self.oracle.node_crashed(node)

    @rule(keys=st.lists(keys, min_size=1, max_size=4))
    def lookups(self, keys):
        """Every active node looks every key up."""
        _fired("lookups")
        self._lookups(keys)

    @rule(dt=st.floats(1.0, 600.0))
    def advance(self, dt):
        _fired("advance")
        self._run(dt)

    # ------------------------------------------------------------------
    # Faults and attacks
    # ------------------------------------------------------------------
    @rule(fault=faults, duration=st.floats(1.0, 600.0))
    def strike(self, fault, duration):
        """Switch ``fault`` on now and off ``duration`` seconds later."""
        kind = type(fault).__name__
        _fired(f"strike {kind}")
        if kind in self.on:  # reverts are clear-all per kind: end it first
            self._switch_off(kind)
        fault.apply(self.ctx)
        self.on[kind] = (fault, self.sim.schedule(duration, self._switch_off, kind))

    def _switch_off(self, kind):
        fault, timer = self.on.pop(kind)
        timer.cancel()
        fault.revert(self.ctx)
        self.last_seen[kind] = self.sim.now

    # ------------------------------------------------------------------
    # Hostile datagrams
    # ------------------------------------------------------------------
    def _descriptors(self, receiver):
        """Live nodes' real (id, address) pairs; unbound ids at unbound
        addresses; unbound ids at the receiver's own address.  Never a live
        id at an address not its own: the tree does not recover from that
        (``test_a_spoofed_address_is_corrected``)."""
        return st.one_of(
            st.sampled_from(self._alive()).map(lambda node: node.descriptor),
            st.builds(intern_descriptor, st.sampled_from(NOBODY), UNBOUND_ADDRS),
            st.builds(intern_descriptor, st.sampled_from(NOBODY),
                      st.just(receiver.addr)),
        )

    @rule(data=st.data())
    def inject(self, data):
        """A burst of hostile datagrams at one live node."""
        alive = self._alive()
        receiver = data.draw(st.sampled_from(alive), label="receiver")
        descs = self._descriptors(receiver)
        messages = (wire_messages(descs, descs, keys)
                    | wire_messages(descs, descs, keys, LEAF_SET_INFO))
        if self.replies.frames:
            messages |= st.sampled_from(self.replies.frames).map(
                lambda frame: decode_frame(frame)[0])
        sources = st.sampled_from([node.addr for node in alive]) | UNBOUND_ADDRS
        burst = data.draw(st.lists(st.tuples(messages, sources), min_size=1,
                                   max_size=4), label="burst")
        self.last_seen["inject"] = self.sim.now
        for msg, src in burst:
            _fired(f"inject {type(msg).__name__}")
            receiver._on_message(src, decode_frame(encode_frame(msg))[0])

    # ------------------------------------------------------------------
    def teardown(self):
        if not hasattr(self, "sim") or sys.exc_info()[0] is not None:
            return  # never built, or a step failed: that is the failure
        for kind in sorted(self.on):
            self._switch_off(kind)
        checker = InvariantChecker(self.sim, self.oracle, period=30.0,
                                   mutual_grace=120.0)
        self._run(QUIET)
        counts = checker.check_now()
        checker.stop()
        for kind in self.UNCHECKED:
            del counts[kind]
        assert counts == dict.fromkeys(counts, 0), counts
        active = self._active()
        crashed = {node.id for node in self.nodes if node.crashed}
        for node in active:
            lingering = crashed.intersection(d.id for d in node.leaf_set.members())
            assert not lingering, f"crashed ids still in a leaf set: {lingering}"
        assert self._lookups([random_nodeid(self.rng) for _ in range(4)]) == 1.0


class StrictDelivery(OverlayFuzz):
    """The poisoning canary: lookups are held to the delivery check while an
    attack is on, too.  Attacks are its only fault and it injects nothing,
    so the search is spent on them.  Hypothesis falsifies it, and shrinks
    the attack to its plainest form (``test_a_dropping_root_*`` below)."""

    EXCUSES = {}
    inject = None  # not a rule here

    @rule(fault=attacks, duration=st.floats(1.0, 600.0))
    def strike(self, fault, duration):
        OverlayFuzz.strike(self, fault, duration)


#: tier-1 replays one fixed search; ``--hypothesis-profile=ci`` runs the
#: profile's budget on a fresh seed instead
_BUDGET = (settings.default if settings.get_current_profile_name() == "ci"
           else settings(max_examples=60, derandomize=True, database=None))
OverlayFuzz.TestCase.settings = settings(
    _BUDGET, deadline=None, stateful_step_count=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
TestOverlayFuzz = OverlayFuzz.TestCase


# ----------------------------------------------------------------------
# What the machine found, as plain tests
# ----------------------------------------------------------------------
def test_the_strict_variant_is_falsified():
    with pytest.raises(AssertionError, match="lookups lost or misdelivered"):
        run_state_machine_as_test(StrictDelivery, settings=settings(
            OverlayFuzz.TestCase.settings, phases=[Phase.generate]))


def test_a_dropping_root_breaks_delivery_until_revoked():
    """``StrictDelivery``'s shrunk case, as Hypothesis printed it: two of
    eight nodes drop every lookup they receive for 2 s.  A root that drops
    is rerouted around, so the lookup is delivered at a node that is not
    the root; after revocation and the quiet period the overlay is clean."""
    state = OverlayFuzz()
    state.build(n=8, seed=476)
    state.strike(duration=2.0, fault=AdversaryFault(fraction=0.25, mix=("drop",)))
    assert state._lookups([0]) < 0.95
    state.teardown()


SPOOFED = 0xDEAD0000  # an address no node is attached at


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP 13: LeafSet.add takes a member's address from any descriptor, "
    "FailureMemory keeps the spoofed one and expiry re-probes it"))
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_a_spoofed_address_is_corrected(seed):
    """One LS-probe whose sender pairs A's successor's id with another
    address: A still holds the successor there 7,100 s later."""
    sim, _, nodes = build_overlay(16, config=CONFIG, seed=seed)
    a = nodes[0]
    ring = sorted(nodes, key=lambda node: node.id)
    successor = ring[(ring.index(a) + 1) % len(ring)].descriptor
    probe = m.LsProbe(sender=intern_descriptor(successor.id, SPOOFED))
    a._on_message(SPOOFED, decode_frame(encode_frame(probe))[0])
    sim.run(until=sim.now + 7100.0)
    assert a.leaf_set.get(successor.id) == successor


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP 14: a sender pruned from a full leaf set is then skipped as a "
    "candidate for 15 s, and nothing offers it again"))
def test_a_neighbour_suppressed_while_pruned_is_readmitted():
    """The machine's first find: after one crash in an 11-node overlay, a
    node lists a neighbour that does not list it back for 1,600 s, longer
    than a state-sweep period."""
    state = OverlayFuzz()
    state.build(n=11, seed=0)
    state.crash(which=0)
    checker = InvariantChecker(state.sim, state.oracle, period=30.0,
                               mutual_grace=120.0)
    state._run(QUIET)
    assert checker.check_now()["leafset_mutual"] == 0
