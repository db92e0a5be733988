"""Protocol tests: overlay routing correctness (paper Figure 2, routei)."""

import random

from repro.pastry.nodeid import is_closer_root, random_nodeid, ring_distance
from tests.conftest import linear_root


def true_root(nodes, key):
    return min(
        (n for n in nodes if n.active and not n.crashed),
        key=lambda n: (ring_distance(n.id, key), n.id),
    )


def run_lookups(sim, nodes, n_lookups, seed=1):
    rng = random.Random(seed)
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append((n, msg))
    expected = []
    for _ in range(n_lookups):
        src = rng.choice([n for n in nodes if n.active])
        key = random_nodeid(rng)
        expected.append((src.lookup(key), key))
    sim.run(until=sim.now + 30)
    return delivered, expected


def test_all_lookups_reach_true_root(small_overlay):
    sim, _net, nodes = small_overlay
    delivered, expected = run_lookups(sim, nodes, 60)
    assert len(delivered) == len(expected)
    for node, msg in delivered:
        assert node.id == true_root(nodes, msg.key).id


def test_lookup_to_own_key_delivered_locally(small_overlay):
    sim, _net, nodes = small_overlay
    node = nodes[0]
    delivered = []
    node.on_deliver = lambda n, msg: delivered.append(msg)
    node.lookup(node.id)
    assert len(delivered) == 1  # synchronous local delivery


def test_hop_count_logarithmic(small_overlay):
    sim, _net, nodes = small_overlay
    delivered, _ = run_lookups(sim, nodes, 80, seed=2)
    hops = [msg.hops for _n, msg in delivered]
    avg = sum(hops) / len(hops)
    # 24 nodes, b=4: expected ~ (15/16) * log16(24) ~ 1.1; allow margin
    assert avg < 4.0


def test_route_around_suspected_node(small_overlay):
    sim, _net, nodes = small_overlay
    rng = random.Random(3)
    key = random_nodeid(rng)
    root = true_root(nodes, key)
    src = next(n for n in nodes if n.id != root.id)
    # Suspect every node: delivery is deferred (a closer-but-suspected node
    # exists), then — the suspicions never resolving — delivered locally
    # once the deferral budget is exhausted.
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append((n, msg))
    for other in nodes:
        if other.id != src.id:
            src.suspected.add(other.id)
    src.lookup(key)
    deferred_initially = delivered == []
    sim.run(until=sim.now + 10)
    for other in nodes:  # clean the shared fixture before asserting
        src.suspected.discard(other.id)
    delivered_now = list(delivered)
    sim.run(until=sim.now + 5)
    assert deferred_initially
    # The deferral probes the suspected blocker, the (alive) blocker
    # answers, the suspicion lifts, and the message reaches the true root.
    assert delivered_now and delivered_now[0][0].id == root.id


def test_exclusion_reroutes_to_alternative(small_overlay):
    sim, _net, nodes = small_overlay
    rng = random.Random(4)
    key = random_nodeid(rng)
    root = true_root(nodes, key)
    src = next(n for n in nodes if n.id != root.id)
    first_hop = src.forwarding.next_hop(key, frozenset())
    assert first_hop is not None
    alt = src.forwarding.next_hop(key, frozenset({first_hop.id}))
    if alt is not None:
        assert alt.id != first_hop.id
        # the alternative still makes progress
        assert ring_distance(alt.id, key) < ring_distance(src.id, key) or (
            src.leaf_set.covers(key)
        )


def test_next_hop_never_returns_failed(small_overlay):
    _sim, _net, nodes = small_overlay
    rng = random.Random(5)
    src = nodes[0]
    key = random_nodeid(rng)
    hop = src.forwarding.next_hop(key, frozenset())
    if hop is not None:
        src.failures.failed[hop.id] = hop
        second = src.forwarding.next_hop(key, frozenset())
        assert second is None or second.id != hop.id
        del src.failures.failed[hop.id]


def test_next_hop_is_none_when_every_closer_leaf_is_unusable(small_overlay):
    """Leaf-set branch: with all closer members suspected, failed or
    excluded the node is the usable root; freeing any one restores it."""
    _sim, _net, nodes = small_overlay
    src = nodes[0]
    key = src.leaf_set.rightmost.id
    assert src.leaf_set.covers(key)
    closer = [
        d for d in src.leaf_set.members() if is_closer_root(d.id, src.id, key)
    ]
    assert len(closer) >= 3
    best = min(closer, key=lambda d: (ring_distance(d.id, key), d.id))
    assert src.forwarding.next_hop(key, frozenset()) is best
    suspect, dead, *rest = closer
    excluded = frozenset(d.id for d in rest)
    src.suspected.add(suspect.id)
    src.failures.failed[dead.id] = dead
    try:
        assert src.forwarding.next_hop(key, excluded) is None
        assert src.forwarding.next_hop(key, frozenset()) in rest
        src.suspected.discard(suspect.id)
        assert src.forwarding.next_hop(key, excluded) is suspect
    finally:
        src.suspected.discard(suspect.id)
        del src.failures.failed[dead.id]


def test_next_hop_leaf_branch_matches_linear_scan(small_overlay):
    """Node-level differential: the leaf-set branch picks what the
    member-by-member ``is_closer_root`` scan it replaced picked."""
    _sim, _net, nodes = small_overlay
    rng = random.Random(8)
    checked = 0
    for node in nodes:
        members = node.leaf_set.members()
        for anchor in members + [node.descriptor]:
            key = (anchor.id + rng.randrange(-2, 3)) % (1 << 128)
            if not node.leaf_set.covers(key):
                continue
            excluded = frozenset(d.id for d in rng.sample(members, rng.randrange(4)))
            best = linear_root(node.leaf_set, key, excluded)
            hop = node.forwarding.next_hop(key, excluded)
            assert hop is (None if best is node.descriptor else best)
            checked += 1
    assert checked > 100


def test_lookup_without_acks_flag(small_overlay):
    sim, _net, nodes = small_overlay
    delivered = []
    for node in nodes:
        node.on_deliver = lambda n, msg: delivered.append(msg)
    rng = random.Random(6)
    src = nodes[3]
    msg = src.lookup(random_nodeid(rng), wants_acks=False)
    sim.run(until=sim.now + 10)
    assert any(d.msg_id == msg.msg_id for d in delivered)
    assert src.acks.in_flight == 0  # nothing tracked


def test_prefix_routing_monotone_progress(small_overlay):
    """Each forwarding step increases prefix match or reduces distance."""
    from repro.pastry.nodeid import shared_prefix_length

    _sim, _net, nodes = small_overlay
    rng = random.Random(7)
    for _ in range(30):
        key = random_nodeid(rng)
        node = rng.choice(nodes)
        hop = node.forwarding.next_hop(key, frozenset())
        if hop is None:
            continue
        better_prefix = shared_prefix_length(hop.id, key, 4) > shared_prefix_length(
            node.id, key, 4
        )
        closer = ring_distance(hop.id, key) < ring_distance(node.id, key)
        assert better_prefix or closer
