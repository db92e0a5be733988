"""Unit and property tests for the routing table."""

from hypothesis import given
from hypothesis import strategies as st

from repro.pastry.nodeid import (
    ID_SPACE,
    NodeDescriptor,
    digit,
    shared_prefix_length,
)
from repro.pastry.routingtable import RoutingTable

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)


def desc(i: int) -> NodeDescriptor:
    return NodeDescriptor(id=i, addr=i)  # one address per id: no member shares the owner's


def make(owner_id=0, b=4):
    return RoutingTable(desc(owner_id), b)


def test_dimensions():
    table = make(b=4)
    assert table.rows == 32
    assert table.cols == 16
    assert make(b=2).rows == 64


def test_slot_for_owner_is_none():
    table = make(owner_id=42)
    assert table.slot_for(42) is None


def test_add_fills_slot_by_prefix():
    owner = 0x1234 << 112
    table = RoutingTable(desc(owner), 4)
    other = 0x1235 << 112  # shares 3 digits, 4th digit differs (5)
    assert table.add(desc(other))
    assert table.get(3, 5).id == other


def test_add_keeps_existing_without_proximity():
    table = make()
    a = 0x5 << 124
    b_entry = (0x5 << 124) | 1  # same slot (row 0, col 5)
    assert table.add(desc(a))
    assert not table.add(desc(b_entry))
    assert table.get(0, 5).id == a


def test_add_replaces_when_closer_proximity():
    table = make()
    a = 0x5 << 124
    b_entry = (0x5 << 124) | 1
    prox = {a: 10.0, b_entry: 2.0}
    table.add(desc(a), prox)
    assert table.add(desc(b_entry), prox)
    assert table.get(0, 5).id == b_entry
    assert a not in table
    assert b_entry in table


def test_add_keeps_closer_incumbent():
    table = make()
    a = 0x5 << 124
    b_entry = (0x5 << 124) | 1
    prox = {a: 1.0, b_entry: 2.0}
    table.add(desc(a), prox)
    assert not table.add(desc(b_entry), prox)
    assert table.get(0, 5).id == a


def test_readd_same_node_new_address_updates():
    table = make()
    a = 0x5 << 124
    table.add(NodeDescriptor(id=a, addr=1))
    assert table.add(NodeDescriptor(id=a, addr=2))
    assert table.get(0, 5).addr == 2


def test_remove():
    table = make()
    a = 0x5 << 124
    table.add(desc(a))
    assert table.remove(a)
    assert not table.remove(a)
    assert table.get(0, 5) is None
    assert len(table) == 0


def test_next_hop_matches_longer_prefix():
    owner = 0
    table = RoutingTable(desc(owner), 4)
    key = 0xAB << 120
    candidate = 0xA0 << 120  # shares 1 digit with key... row 0 col 0xA for owner 0
    table.add(desc(candidate))
    hop = table.next_hop(key)
    assert hop.id == candidate


def test_next_hop_none_for_own_id():
    table = make(owner_id=77)
    assert table.next_hop(77) is None


def test_row_entries_and_occupied_rows():
    owner = 0
    table = RoutingTable(desc(owner), 4)
    table.add(desc(0x1 << 124))  # row 0
    table.add(desc(0x2 << 124))  # row 0
    table.add(desc(0x01 << 120))  # row 1 (first digit 0 matches owner)
    assert sorted(d.id for d in table.row_entries(0)) == [0x1 << 124, 0x2 << 124]
    assert table.occupied_rows() == [0, 1]


def test_entry_for():
    table = make()
    a = 0x9 << 124
    table.add(desc(a))
    assert table.entry_for(a).id == a
    assert table.entry_for(123) is None


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(ids, st.lists(ids, min_size=0, max_size=60), st.sampled_from([1, 2, 4]))
def test_every_entry_in_correct_slot(owner_id, others, b):
    table = RoutingTable(desc(owner_id), b)
    for i in others:
        if i != owner_id:
            table.add(desc(i))
    for flat, entry in table._slots.items():
        row, col = divmod(flat, table.cols)
        assert shared_prefix_length(entry.id, owner_id, b) == row
        assert digit(entry.id, row, b) == col


@given(ids, st.lists(ids, min_size=1, max_size=60), ids)
def test_next_hop_improves_prefix_match(owner_id, others, key):
    table = RoutingTable(desc(owner_id), 4)
    for i in others:
        if i != owner_id:
            table.add(desc(i))
    hop = table.next_hop(key)
    if hop is not None and key != owner_id:
        own_match = shared_prefix_length(key, owner_id, 4)
        assert shared_prefix_length(key, hop.id, 4) > own_match


@given(ids, st.lists(ids, min_size=0, max_size=60))
def test_reverse_index_consistent(owner_id, others):
    table = RoutingTable(desc(owner_id), 4)
    for i in others:
        if i != owner_id:
            table.add(desc(i))
    assert len(table._slots) == len(table._slot_of)
    for node_id, slot in table._slot_of.items():
        assert table._slots[slot].id == node_id
