"""Unit tests for the adversary subsystem: behaviors, fault, schedule.

The interception tests drive :class:`ActiveAdversary` directly with crafted
messages — the integration path (schedule install → intercepted traffic →
metrics) is covered by the ``attacks`` experiment smoke test, and
``tests/test_overlay_fuzz.py`` composes attacks with churn, faults and
hostile messages (its committed poisoning case pins the attack's effect).
"""

import random
from collections import defaultdict

import pytest

from repro.adversary import AdversaryFault, AdversaryParams, BEHAVIORS
from repro.adversary.behaviors import MISROUTE_HOP_CAP, ActiveAdversary
from repro.faults import FaultEvent, FaultSchedule, Partition
from repro.metrics.collector import LookupRecord, StatsCollector
from repro.pastry import messages as m
from tests.conftest import fresh_overlay


def make_adversary(node, behavior, colluders=(), seed=7, counters=None):
    adv = ActiveAdversary(
        node,
        behavior,
        BEHAVIORS[behavior],
        list(colluders),
        random.Random(seed),
        counters if counters is not None else defaultdict(int),
    )
    adv.install()
    return adv


def make_routed_lookup(src, key):
    """A lookup that looks mid-route: originated at ``src``, acked hops."""
    msg = src.make_lookup(key)
    msg.sender = src.descriptor
    return msg


# ----------------------------------------------------------------------
# Parameter validation (satellite 2)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"drop": 1.5},
        {"drop": -0.1},
        {"misroute": 2.0},
        {"spam_period": -1.0},
        {"spam_period": 2.0, "spam_fanout": 0},
        {"spam_fanout": -1},
    ],
)
def test_params_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AdversaryParams(**kwargs)


def test_params_noop_detection():
    assert AdversaryParams().is_noop
    for name, params in BEHAVIORS.items():
        assert not params.is_noop, f"preset {name} does nothing"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fraction": 1.5},
        {"fraction": -0.1},
        {"mix": ()},
        {"mix": "no-such-behavior"},
        {"mix": {"drop": 0.0}},
        {"mix": {"drop": -1.0}},
    ],
)
def test_fault_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AdversaryFault(**kwargs)


def test_fault_mix_normalization():
    assert AdversaryFault(mix="drop").mix == (("drop", 1.0),)
    assert AdversaryFault(mix=["drop", "spam"]).mix == (
        ("drop", 1.0),
        ("spam", 1.0),
    )
    assert AdversaryFault(mix={"misroute": 2.0}).mix == (("misroute", 2.0),)
    assert AdversaryFault(mix=[("eclipse", 3)]).mix == (("eclipse", 3.0),)


# ----------------------------------------------------------------------
# Behavior interception
# ----------------------------------------------------------------------
def test_drop_consumes_lookup_without_ack(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "drop")
    try:
        msg = make_routed_lookup(nodes[0], nodes[1].id)
        assert adv.intercept(nodes[0].addr, msg) is True
        assert adv.counters["lookups_dropped"] == 1
        assert adv.counters["acks_spoofed"] == 0
    finally:
        adv.uninstall()


def test_spoof_acks_previous_hop(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "spoof")
    try:
        msg = make_routed_lookup(nodes[0], nodes[1].id)
        assert adv.intercept(nodes[0].addr, msg) is True
        assert adv.counters["lookups_dropped"] == 1
        assert adv.counters["acks_spoofed"] == 1
    finally:
        adv.uninstall()


def test_misroute_diverts_to_colluder(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "misroute", colluders=[nodes[2].descriptor])
    try:
        msg = make_routed_lookup(nodes[0], nodes[3].id)
        hops_before = msg.hops
        assert adv.intercept(nodes[0].addr, msg) is True
        assert adv.counters["lookups_misrouted"] == 1
        assert msg.hops == hops_before + 1
    finally:
        adv.uninstall()


def test_misroute_hop_cap_breaks_colluder_loops(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "misroute", colluders=[nodes[2].descriptor])
    try:
        msg = make_routed_lookup(nodes[0], nodes[3].id)
        msg.hops = MISROUTE_HOP_CAP
        assert adv.intercept(nodes[0].addr, msg) is True
        assert adv.counters["lookups_misrouted"] == 0
        assert adv.counters["lookups_dropped"] == 1
    finally:
        adv.uninstall()


def test_eclipse_captures_foreign_join(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "eclipse", colluders=[nodes[2].descriptor])
    try:
        joiner = nodes[5].descriptor
        msg = m.JoinRequest(msg_id=0xBEEF, joiner=joiner, rows={})
        msg.sender = nodes[0].descriptor
        assert adv.intercept(nodes[0].addr, msg) is True
        assert adv.counters["joins_captured"] == 1
        # the compromised node's own join request is never captured
        own = m.JoinRequest(msg_id=0xCAFE, joiner=nodes[1].descriptor, rows={})
        own.sender = nodes[0].descriptor
        assert adv.intercept(nodes[0].addr, own) is False
        # the joiner is optional on the wire: nobody to capture (found by
        # tests/test_overlay_fuzz.py; it raised AttributeError)
        anonymous = m.JoinRequest(msg_id=0xD00D, sender=nodes[0].descriptor)
        assert adv.intercept(nodes[0].addr, anonymous) is False
    finally:
        adv.uninstall()


def test_poison_appends_colluders_to_join_rows(small_overlay):
    sim, net, nodes = small_overlay
    adv = make_adversary(nodes[1], "poison", colluders=[nodes[2].descriptor])
    try:
        msg = m.JoinRequest(msg_id=0xF00D, joiner=nodes[5].descriptor, rows={})
        msg.sender = nodes[0].descriptor
        # poisoning lets honest handling continue (False = not consumed)
        assert adv.intercept(nodes[0].addr, msg) is False
        assert adv.counters["joins_poisoned"] == 1
        poisoned_ids = {d.id for d in msg.rows[0]}
        assert nodes[1].id in poisoned_ids
        assert nodes[2].id in poisoned_ids
    finally:
        adv.uninstall()


def test_spam_sends_periodic_probes():
    sim, net, nodes = fresh_overlay(8, seed=31)
    adv = make_adversary(nodes[2], "spam")
    try:
        sim.run(until=sim.now + 30.0)
        assert adv.counters["spam_sent"] > 0
    finally:
        adv.uninstall()
    sent_at_uninstall = adv.counters["spam_sent"]
    sim.run(until=sim.now + 30.0)
    assert adv.counters["spam_sent"] == sent_at_uninstall


def test_uninstall_is_idempotent_and_crash_uninstalls():
    sim, net, nodes = fresh_overlay(8, seed=32)
    adv = make_adversary(nodes[3], "drop")
    assert nodes[3].adversary is adv
    adv.uninstall()
    adv.uninstall()
    assert nodes[3].adversary is None
    adv2 = make_adversary(nodes[4], "drop")
    nodes[4].crash()
    assert not adv2.installed
    assert nodes[4].adversary is None


# ----------------------------------------------------------------------
# Scheduling: AdversaryFault through FaultSchedule
# ----------------------------------------------------------------------
def test_adversary_fault_applies_and_reverts():
    sim, net, nodes = fresh_overlay(12, seed=33)
    schedule = FaultSchedule(
        [FaultEvent(AdversaryFault(fraction=0.25, mix="drop"), 10.0, 30.0)]
    )
    schedule.install(sim, net, random.Random(99), offset=sim.now)
    start = sim.now
    sim.run(until=start + 20.0)
    assert net.faults.active_faults["adversary_nodes"] == 3
    compromised = [n for n in nodes if n.adversary is not None]
    assert len(compromised) == 3
    # all chosen nodes of one event collude (self excluded from own list)
    for node in compromised:
        assert len(node.adversary.colluders) == 2
    sim.run(until=start + 60.0)
    assert net.faults.active_faults["adversary_nodes"] == 0
    assert all(n.adversary is None for n in nodes)


def test_adversary_fault_skips_crashed_nodes():
    sim, net, nodes = fresh_overlay(8, seed=34)
    for node in nodes[4:]:
        node.crash()
    schedule = FaultSchedule(
        [FaultEvent(AdversaryFault(fraction=1.0, mix="drop"), 5.0, 30.0)]
    )
    schedule.install(sim, net, random.Random(7), offset=sim.now)
    sim.run(until=sim.now + 10.0)
    assert all(n.adversary is None for n in nodes[4:])
    assert all(n.adversary is not None for n in nodes[:4])


# ----------------------------------------------------------------------
# FaultSchedule.validate (satellite 1)
# ----------------------------------------------------------------------
def overlap_events(start_a, dur_a, start_b, dur_b, kind_a=None, kind_b=None):
    return [
        FaultEvent(kind_a or Partition(fraction=0.5), start_a, dur_a),
        FaultEvent(kind_b or Partition(fraction=0.3), start_b, dur_b),
    ]


def test_validate_rejects_same_kind_overlap_with_different_ends():
    with pytest.raises(ValueError, match="overlap"):
        FaultSchedule(overlap_events(0.0, 100.0, 50.0, 100.0))


def test_validate_rejects_nested_same_kind_windows():
    with pytest.raises(ValueError, match="overlap"):
        FaultSchedule(overlap_events(0.0, 100.0, 20.0, 30.0))


def test_validate_allows_equal_end_overlap():
    # the gray-mix pattern: several same-kind faults sharing one window end
    FaultSchedule(overlap_events(0.0, 100.0, 50.0, 50.0))


def test_validate_allows_disjoint_and_back_to_back():
    FaultSchedule(overlap_events(0.0, 50.0, 50.0, 50.0))
    FaultSchedule(overlap_events(0.0, 40.0, 60.0, 40.0))


def test_validate_allows_cross_kind_overlap():
    events = overlap_events(
        0.0, 100.0, 50.0, 100.0,
        kind_a=Partition(fraction=0.5),
        kind_b=AdversaryFault(fraction=0.1, mix="poison"),
    )
    FaultSchedule(events)


# ----------------------------------------------------------------------
# routing_consistency metric
# ----------------------------------------------------------------------
def test_routing_consistency_counts_only_correct_deliveries():
    stats = StatsCollector()
    stats.end_time = 1000.0
    records = [
        LookupRecord(sent_at=10.0, delivered_at=11.0, correct=True),
        LookupRecord(sent_at=10.0, delivered_at=11.0, correct=False),
        LookupRecord(sent_at=10.0, dropped=True),
        # in-flight: sent within the grace window, excluded from the base
        LookupRecord(sent_at=990.0),
    ]
    for i, record in enumerate(records):
        stats.lookups[i] = record
    assert stats.routing_consistency() == pytest.approx(1 / 3)


def test_routing_consistency_is_one_when_nothing_settled():
    stats = StatsCollector()
    stats.end_time = 10.0
    assert stats.routing_consistency() == 1.0
