"""Tests for the ground-truth oracle."""

import random

from repro.overlay.oracle import Oracle
from repro.pastry.nodeid import ID_SPACE, ring_distance


class FakeNode:
    def __init__(self, node_id):
        self.id = node_id


def test_root_of_empty_is_none():
    oracle = Oracle()
    assert oracle.root_of(123) is None


def test_root_of_single_node():
    oracle = Oracle()
    oracle.node_activated(FakeNode(100))
    assert oracle.root_of(0) == 100
    assert oracle.root_of(ID_SPACE - 1) == 100


def test_root_is_ring_closest_with_tie_break():
    oracle = Oracle()
    for i in (100, 200):
        oracle.node_activated(FakeNode(i))
    assert oracle.root_of(120) == 100
    assert oracle.root_of(180) == 200
    assert oracle.root_of(150) == 100  # tie -> smaller id


def test_root_wraps_around_ring():
    oracle = Oracle()
    oracle.node_activated(FakeNode(10))
    oracle.node_activated(FakeNode(ID_SPACE - 10))
    assert oracle.root_of(ID_SPACE - 3) == ID_SPACE - 10
    assert oracle.root_of(2) == 10
    assert oracle.root_of(0) == 10 if ring_distance(10, 0) < ring_distance(
        ID_SPACE - 10, 0
    ) else ID_SPACE - 10


def test_crash_removes_from_root_computation():
    oracle = Oracle()
    a, b = FakeNode(100), FakeNode(110)
    oracle.node_activated(a)
    oracle.node_activated(b)
    assert oracle.root_of(109) == 110
    oracle.node_crashed(b)
    assert oracle.root_of(109) == 100
    assert oracle.active_count == 1


def test_alive_vs_active_distinct():
    oracle = Oracle()
    node = FakeNode(5)
    oracle.node_alive(node)
    assert oracle.alive_ids() == [5]
    assert oracle.active_count == 0
    oracle.node_activated(node)
    assert oracle.active_count == 1
    oracle.node_crashed(node)
    assert oracle.alive_ids() == []
    assert oracle.active_count == 0


def test_double_activation_idempotent():
    oracle = Oracle()
    node = FakeNode(5)
    oracle.node_activated(node)
    oracle.node_activated(node)
    assert oracle.active_count == 1


def test_random_active_none_when_empty():
    oracle = Oracle()
    assert oracle.random_active(random.Random(1)) is None


def test_root_matches_bruteforce_on_random_sets():
    rng = random.Random(7)
    oracle = Oracle()
    nodes = [FakeNode(rng.getrandbits(128)) for _ in range(200)]
    for node in nodes:
        oracle.node_activated(node)
    for _ in range(300):
        key = rng.getrandbits(128)
        expected = min(nodes, key=lambda n: (ring_distance(n.id, key), n.id)).id
        assert oracle.root_of(key) == expected


def test_is_correct_root():
    oracle = Oracle()
    oracle.node_activated(FakeNode(100))
    oracle.node_activated(FakeNode(900))
    assert oracle.is_correct_root(100, 120)
    assert not oracle.is_correct_root(900, 120)
