"""Protocol tests: proximity neighbour selection (paper §4.2)."""


from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from tests.conftest import slot_of
from tests.euclidean import EuclideanTopology


def euclid_overlay(n=20, seed=51, **cfg):
    config = PastryConfig(leaf_set_size=8, **cfg)
    topology = EuclideanTopology(side=1.0, delay_per_unit=0.1)
    sim, net, nodes = build_overlay(
        n, config=config, topology=topology, seed=seed, settle=90.0
    )
    return sim, net, nodes, topology


def test_proximity_cache_populated_after_join():
    _sim, _net, nodes, _topo = euclid_overlay()
    with_measurements = sum(1 for n in nodes if n.prox.proximity)
    assert with_measurements > len(nodes) * 0.8


def test_measured_proximity_close_to_true_rtt():
    _sim, _net, nodes, topo = euclid_overlay()
    checked = 0
    for node in nodes:
        for peer_id, rtt in node.prox.proximity.items():
            peer = next((p for p in nodes if p.id == peer_id), None)
            if peer is None:
                continue
            true_rtt = topo.proximity(node.addr, peer.addr)
            assert abs(rtt - true_rtt) < 1e-6
            checked += 1
    assert checked > 20


def test_routing_tables_prefer_nearby_entries():
    """PNS: the chosen entry should be among the closer candidates."""
    _sim, _net, nodes, topo = euclid_overlay(n=24, seed=53)
    better_possible, total = 0, 0
    by_id = {n.id: n for n in nodes}
    for node in nodes:
        for entry in node.routing_table.entries():
            slot = slot_of(node, entry.id)
            candidates = [p for p in nodes if p.id != node.id and slot_of(node, p.id) == slot]
            if len(candidates) < 2:
                continue
            total += 1
            chosen = topo.proximity(node.addr, entry.addr)
            best = min(topo.proximity(node.addr, c.addr) for c in candidates)
            if chosen > best * 1.5 + 1e-9:
                better_possible += 1
    if total:
        assert better_possible / total < 0.7  # most slots near-optimal


def test_symmetric_reports_fill_peer_caches():
    sim, net, nodes, _topo = euclid_overlay(n=12, seed=57)
    a, b = nodes[2], nodes[5]
    a.prox.proximity.pop(b.id, None)
    b.prox.proximity.pop(a.id, None)
    a.prox.measure(b.descriptor)
    sim.run(until=sim.now + 10)
    assert b.id in a.prox.proximity
    assert a.id in b.prox.proximity  # via DistanceReport, no probe from b


def test_symmetric_probes_disabled_no_report():
    sim, net, nodes, _topo = euclid_overlay(
        n=12, seed=59, symmetric_distance_probes=False
    )
    a, b = nodes[1], nodes[4]
    a.prox.proximity.pop(b.id, None)
    b.prox.proximity.pop(a.id, None)
    a.prox.measure(b.descriptor)
    sim.run(until=sim.now + 10)
    assert b.id in a.prox.proximity
    assert a.id not in b.prox.proximity


def test_measurement_uses_median_of_probes():
    sim, net, nodes, topo = euclid_overlay(n=8, seed=61)
    a, b = nodes[0], nodes[3]
    a.prox.proximity.pop(b.id, None)
    results = []
    a.prox.measure(b.descriptor, results.append)
    sim.run(until=sim.now + 10)
    assert len(results) == 1
    assert abs(results[0] - topo.proximity(a.addr, b.addr)) < 1e-9


def test_measurement_of_dead_node_reports_none():
    sim, net, nodes, _topo = euclid_overlay(n=8, seed=63)
    a, b = nodes[0], nodes[3]
    a.prox.proximity.pop(b.id, None)
    b.crash()
    results = []
    a.prox.measure(b.descriptor, results.append)
    sim.run(until=sim.now + 30)
    assert results == [None]


def test_concurrent_measurements_share_probes():
    sim, net, nodes, _topo = euclid_overlay(n=8, seed=65)
    a, b = nodes[1], nodes[2]
    a.prox.proximity.pop(b.id, None)
    results = []
    before = net.messages_sent
    a.prox.measure(b.descriptor, results.append)
    a.prox.measure(b.descriptor, results.append)  # merged into the first
    sim.run(until=sim.now + 10)
    assert len(results) == 2
    assert results[0] == results[1]


def test_cached_measurement_answers_immediately():
    sim, net, nodes, _topo = euclid_overlay(n=8, seed=67)
    a, b = nodes[0], nodes[1]
    a.prox.record(b.id, 0.123, b.addr)
    results = []
    before = net.messages_sent
    a.prox.measure(b.descriptor, results.append)
    assert results == [0.123]
    assert net.messages_sent == before  # no probes sent


def test_row_announce_triggers_consideration():
    sim, net, nodes, _topo = euclid_overlay(n=16, seed=69)
    a = nodes[0]
    # craft an announce containing a node a doesn't know
    unknown = next(
        (n for n in nodes if n.id != a.id and n.id not in a.routing_table
         and n.id not in a.prox.proximity),
        None,
    )
    if unknown is None:
        return  # everyone known in this tiny overlay; nothing to assert
    row = slot_of(a, unknown.id)[0]
    a.prox.on_row_announce(
        nodes[1].addr, nodes[1].descriptor, m.RowAnnounce(row=row, entries=[unknown.descriptor])
    )
    sim.run(until=sim.now + 10)
    assert unknown.id in a.prox.proximity


def test_maintenance_requests_rows():
    sim, net, nodes, _topo = euclid_overlay(n=12, seed=71)
    a = nodes[0]
    sent_rows = []
    orig = a.send

    def spy(dest, msg):
        if isinstance(msg, m.RowRequest):
            sent_rows.append(msg.row)
        orig(dest, msg)

    a.send = spy
    a.prox.run_maintenance()
    assert sorted(set(sent_rows)) == a.routing_table.occupied_rows()


def test_pns_disabled_no_distance_probes():

    config = PastryConfig(leaf_set_size=8, pns=False)
    topology = EuclideanTopology()

    sim, net, nodes = build_overlay(10, config=config, topology=topology, seed=73)
    # No proximity state anywhere.
    assert all(not n.prox.proximity for n in nodes)
