"""Unit and property tests for the leaf set."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import (
    HALF_SPACE,
    ID_SPACE,
    NodeDescriptor,
    clockwise_distance,
    counter_clockwise_distance,
    ring_distance,
)
from tests.conftest import linear_covers, linear_root

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)


def desc(i: int) -> NodeDescriptor:
    return NodeDescriptor(id=i, addr=i)  # one address per id: no member shares the owner's


def make(owner_id=1000, size=8):
    return LeafSet(desc(owner_id), size)


def test_rejects_odd_or_tiny_size():
    with pytest.raises(ValueError):
        LeafSet(desc(1), 3)
    with pytest.raises(ValueError):
        LeafSet(desc(1), 0)


def test_owner_never_added():
    ls = make()
    assert not ls.add(desc(1000))
    assert len(ls) == 0


def test_add_and_sides():
    ls = make(owner_id=1000, size=4)
    for i in (900, 950, 1050, 1100):
        assert ls.add(desc(i))
    assert [d.id for d in ls.left_side] == [950, 900]
    assert [d.id for d in ls.right_side] == [1050, 1100]
    assert ls.leftmost.id == 900
    assert ls.rightmost.id == 1100
    assert ls.left_neighbour.id == 950
    assert ls.right_neighbour.id == 1050


def test_prunes_to_closest_per_side():
    ls = make(owner_id=1000, size=4)
    for i in (100, 200, 900, 950, 1050, 1100, 1500, 1600):
        ls.add(desc(i))
    member_ids = {d.id for d in ls.members()}
    assert member_ids == {900, 950, 1050, 1100}


def test_small_set_wraps_members_on_both_sides():
    ls = make(owner_id=1000, size=8)
    ls.add(desc(2000))
    ls.add(desc(3000))
    # Fewer than l members: each appears in both sides.
    assert {d.id for d in ls.left_side} == {2000, 3000}
    assert {d.id for d in ls.right_side} == {2000, 3000}
    assert ls.wrapped()
    assert len(ls) == 2  # non-empty: done probing activates the node


def test_empty_set_incomplete_but_covers_everything():
    # empty is the one incomplete state: done probing repairs instead
    ls = make()
    assert len(ls) == 0 and not ls
    assert ls.covers(0)
    assert ls.covers(123456)


def test_full_disjoint_sides_complete():
    ls = make(owner_id=1 << 127, size=4)
    base = 1 << 127
    for delta in (-2000, -1000, 1000, 2000):
        ls.add(desc(base + delta))
    assert len(ls) == 4  # both sides full
    assert not ls.wrapped()


def test_losing_a_member_makes_set_wrapped():
    # Fewer than l members always overlaps by pigeonhole: the set cannot
    # distinguish a small ring from one it is repairing in.
    ls = make(owner_id=1000, size=4)
    for i in (900, 950, 1050, 1100):
        ls.add(desc(i))
    assert not ls.wrapped()
    ls.remove(900)
    assert ls.wrapped()
    assert ls and ls.covers(5000)  # treated as ring-covering until refilled


def test_version_bumps_on_change_only():
    ls = make(owner_id=1000, size=4)
    v0 = ls.version
    ls.add(desc(900))
    assert ls.version == v0 + 1
    ls.add(desc(900))  # no change
    assert ls.version == v0 + 1
    ls.remove(900)
    assert ls.version == v0 + 2
    ls.remove(900)  # already gone
    assert ls.version == v0 + 2


def test_covers_arc_through_owner():
    ls = make(owner_id=1000, size=4)
    for i in (800, 900, 1100, 1200):
        ls.add(desc(i))
    assert ls.covers(1000)
    assert ls.covers(850)
    assert ls.covers(1200)
    assert ls.covers(800)
    assert not ls.covers(5000)
    assert not ls.covers(ID_SPACE - 5)


def test_covers_everything_when_wrapped():
    ls = make(owner_id=1000, size=8)
    ls.add(desc(5000))
    assert ls.covers(0)
    assert ls.covers(ID_SPACE // 2)


def test_closest_to_prefers_minimal_ring_distance():
    ls = make(owner_id=1000, size=4)
    for i in (800, 900, 1100, 1200):
        ls.add(desc(i))
    assert ls.closest_to(1150).id == 1100
    assert ls.closest_to(1001).id == 1000  # owner
    assert ls.closest_to(810).id == 800


def test_remove():
    ls = make(owner_id=1000, size=4)
    ls.add(desc(900))
    assert ls.remove(900)
    assert not ls.remove(900)
    assert len(ls) == 0


def test_get_and_contains():
    ls = make(owner_id=1000, size=4)
    ls.add(desc(900))
    assert 900 in ls
    assert ls.get(900).id == 900
    assert ls.get(901) is None


def test_would_admit_full_sides():
    ls = make(owner_id=1000, size=4)
    for i in (900, 950, 1050, 1100):
        ls.add(desc(i))
    assert ls.would_admit(desc(975))  # closer than leftmost
    assert ls.would_admit(desc(1025))  # closer than rightmost on right
    assert not ls.would_admit(desc(500))  # farther than both extremes
    assert not ls.would_admit(desc(1050))  # already a member
    assert not ls.would_admit(desc(1000))  # owner


def test_would_admit_when_not_full():
    ls = make(owner_id=1000, size=8)
    ls.add(desc(900))
    assert ls.would_admit(desc(123))


def test_add_updates_changed_address():
    ls = make(owner_id=1000, size=4)
    ls.add(NodeDescriptor(id=900, addr=5))
    ls.add(NodeDescriptor(id=900, addr=9))  # rejoined elsewhere
    assert ls.get(900).addr == 9
    assert len(ls) == 1


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(ids, st.lists(ids, min_size=0, max_size=40), st.sampled_from([4, 8, 16]))
# ids that ``i % 100000`` once mapped to one address, so the member was
# refused as carrying the owner's address
@example(24_414_062_500_000, [0], 4)
def test_members_are_per_side_closest(owner_id, others, size):
    ls = LeafSet(desc(owner_id), size)
    unique = {i for i in others if i != owner_id}
    for i in unique:
        ls.add(desc(i))
    half = size // 2
    cw_sorted = sorted(unique, key=lambda i: clockwise_distance(owner_id, i))
    ccw_sorted = sorted(unique, key=lambda i: counter_clockwise_distance(owner_id, i))
    assert [d.id for d in ls.right_side] == cw_sorted[:half]
    assert [d.id for d in ls.left_side] == ccw_sorted[:half]


@given(ids, st.lists(ids, min_size=1, max_size=40), ids)
def test_closest_to_is_global_minimum(owner_id, others, key):
    ls = LeafSet(desc(owner_id), 8)
    for i in others:
        ls.add(desc(i))
    candidates = [owner_id] + [d.id for d in ls.members()]
    best = ls.closest_to(key).id
    assert ring_distance(best, key) == min(ring_distance(c, key) for c in candidates)


@st.composite
def leafset_key_unusable(draw):
    """A leaf set, a key and a set of unusable member ids, biased towards
    the cases a ring bisect can get wrong: sets wrapping past id 0, all
    members on one side of the owner, everyone unusable, keys equal to or
    exactly between members."""
    owner_id = draw(st.one_of(ids, st.sampled_from([0, 1, HALF_SPACE, ID_SPACE - 1])))
    offset = draw(st.sampled_from([
        st.integers(1, ID_SPACE - 1),  # anywhere on the ring
        st.integers(-40, 40),  # a dense cluster around the owner: ties
        st.integers(1, HALF_SPACE - 1),  # clockwise only
        st.integers(HALF_SPACE + 1, ID_SPACE - 1),  # counter-clockwise only
    ]))
    ls = LeafSet(desc(owner_id), draw(st.sampled_from([4, 8, 16, 32])))
    for off in draw(st.lists(offset, min_size=0, max_size=40)):
        ls.add(desc((owner_id + off) % ID_SPACE))
    candidates = sorted([owner_id] + [d.id for d in ls.members()])
    j = draw(st.integers(0, len(candidates) - 1))
    a, b = candidates[j], candidates[(j + 1) % len(candidates)]  # ring neighbours
    key = draw(st.one_of(
        ids,
        st.just(a),  # the owner or a member itself
        st.just((a + clockwise_distance(a, b) // 2) % ID_SPACE),  # a tie if even
        st.integers(-3, 3).map(lambda d: (a + d) % ID_SPACE),
    ))
    unusable = draw(st.one_of(
        st.just(frozenset()),
        st.frozensets(st.sampled_from(candidates)),
        st.just(frozenset(candidates)),  # everyone; the owner stays eligible
    ))
    return ls, key, unusable


@given(leafset_key_unusable())
def test_closest_to_matches_linear_scan(case):
    ls, key, unusable = case
    expected = linear_root(ls, key, unusable)
    assert ls.closest_to(key, unusable) is expected
    some = frozenset(list(unusable)[::2])  # split over several containers
    assert ls.closest_to(key, some, {}, unusable - some) is expected
    if not unusable:
        assert ls.closest_to(key) is expected


@given(leafset_key_unusable(), st.integers(-2, 2))
def test_covers_matches_the_side_view_form(case, nudge):
    """Wrapped sets, sets of exactly ``l`` members, the key on either extreme
    (and one id beyond it), the key on the owner."""
    ls, key, _unusable = case
    assert ls.covers(key) == linear_covers(ls, key)
    assert ls.covers(ls.owner.id) and linear_covers(ls, ls.owner.id)
    for extreme in (ls.leftmost, ls.rightmost):
        if extreme is not None:
            edge = (extreme.id + nudge) % ID_SPACE
            assert ls.covers(edge) == linear_covers(ls, edge)


@given(
    ids,
    st.lists(st.tuples(st.booleans(), st.integers(-40, 40) | ids), max_size=60),
    st.sampled_from([2, 4, 8]),
)
def test_a_side_is_empty_only_when_the_set_is(owner_id, ops, size):
    """§3.1 suspends deliveries "while one leaf-set side is empty".  On the
    sorted ring each side is the ``l/2`` closest members in its direction,
    whichever way round they lie, so one member already sits on both: the
    rule cannot bite, and ``Forwarding`` carries no predicate for it."""
    ls = LeafSet(desc(owner_id), size)
    for is_add, off in ops:
        node_id = (owner_id + off) % ID_SPACE
        if is_add:
            ls.add(desc(node_id))
        else:
            ls.remove(node_id)
        assert bool(ls.left_side) == bool(ls.right_side) == (len(ls) > 0)


def test_closest_to_breaks_ties_towards_smaller_id():
    ls = make(owner_id=1000, size=4)
    for i in (900, 1100, ID_SPACE - 10):
        ls.add(desc(i))
    assert ls.closest_to(1050).id == 1000  # owner vs member
    assert ls.closest_to(1050, {900}).id == 1000
    assert ls.closest_to(950).id == 900  # member vs owner
    assert ls.closest_to(1000, {900, 1100}, {ID_SPACE - 10}).id == 1000
    wrapping = LeafSet(desc(ID_SPACE - 4), 4)
    wrapping.add(desc(6))
    assert wrapping.closest_to(1).id == 6  # 5 away either way round id 0
    assert wrapping.closest_to(0).id == ID_SPACE - 4


@given(ids, st.lists(ids, min_size=0, max_size=40))
def test_would_admit_matches_add(owner_id, others):
    ls = LeafSet(desc(owner_id), 8)
    unique = list({i for i in others if i != owner_id})
    probe_ids, grow_ids = unique[: len(unique) // 2], unique[len(unique) // 2:]
    for i in grow_ids:
        ls.add(desc(i))
    for i in probe_ids:
        predicted = ls.would_admit(desc(i))
        actual = ls.add(desc(i))
        assert predicted == actual


# ----------------------------------------------------------------------
# The admission test against its ring-offset definition
# ----------------------------------------------------------------------
def ring_offsets(ls):
    """-> (owner, sorted clockwise offsets of the members, half)."""
    owner = ls.owner.id
    return owner, sorted((m.id - owner) % ID_SPACE for m in ls.members()), ls.size // 2


def offset_admits(ls, node_id):
    """The window in clockwise offsets from the owner: closer than the right
    extreme (``keys[half - 1]``) or than the left one (``keys[n - half]``)."""
    owner, keys, half = ring_offsets(ls)
    n = len(keys)
    if n < half:
        return True
    cw = (node_id - owner) % ID_SPACE
    return cw < keys[half - 1] or cw > keys[n - half]


def offset_would_admit(ls, d):
    """``would_admit`` as the offsets state it: the owner, a member and a
    foreign id at the owner's address are never admitted."""
    if d.id == ls.owner.id or d.id in ls or d.addr == ls.owner.addr:
        return False
    return offset_admits(ls, d.id)


def offset_covers(ls, key):
    owner, keys, half = ring_offsets(ls)
    n = len(keys)
    if n < ls.size:
        return True
    cw = (key - owner) % ID_SPACE
    return cw <= keys[half - 1] or cw >= keys[n - half]


@st.composite
def admission_rings(draw):
    """A leaf set of each population class — fewer than l/2 members, l/2 up
    to l - 1, exactly l - 1, l or more (pruned back to l) — around an owner
    drawn anywhere or next to id 0, members spread narrowly enough that the
    window often crosses id 0; and the ids to try on it: every member (so
    both extremes), their neighbours, the owner, random ids, and a foreign
    id at the owner's address."""
    size = draw(st.sampled_from([2, 4, 8, 16]))
    half = size // 2
    n = draw(st.sampled_from([
        st.integers(0, half - 1), st.integers(half, size - 1),
        st.just(size - 1), st.integers(size, 2 * size + 3)]).flatmap(lambda s: s))
    owner_id = draw(st.one_of(ids, st.integers(0, 1 << 8),
                              st.integers(ID_SPACE - (1 << 8), ID_SPACE - 1)))
    spread = draw(st.sampled_from([1 << 8, 1 << 64, HALF_SPACE]))
    offsets = draw(st.lists(st.integers(-spread, spread).filter(bool),
                            min_size=n, max_size=n, unique=True))
    ls = LeafSet(desc(owner_id), size)
    for off in offsets:
        ls.add(desc((owner_id + off) % ID_SPACE))
    near = [(m.id + step) % ID_SPACE for m in ls.members() for step in (-1, 0, 1)]
    tries = [desc(i) for i in near + [owner_id] + draw(st.lists(ids, max_size=4))]
    tries.append(NodeDescriptor(id=draw(ids), addr=owner_id))
    return ls, tries


@given(admission_rings())
@example((LeafSet(desc(5), 4), [desc(5)]))
def test_admission_test_matches_its_ring_offset_definition(case):
    ls, tries = case
    full = len(ls) >= ls.size
    for d in tries:
        if full:
            # The extremes sit on the window's ends and are outside it.
            assert ls.admits(d.id) == offset_admits(ls, d.id), d
        else:
            # Below l members the window is every id but the owner's (the
            # offsets also let in the owner and, at l - 1, refuse the member
            # at ``keys[half - 1]``: neither can be added, so neither is
            # asked about).
            assert ls.admits(d.id) == (d.id != ls.owner.id), d
        assert ls.would_admit(d) == offset_would_admit(ls, d), d
        assert ls.covers(d.id) == offset_covers(ls, d.id), d
    assert ls.admitted(tries) == {d.id for d in tries if offset_would_admit(ls, d)}
