"""Unit and property tests for identifier-space arithmetic."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.pastry.nodeid import (
    ID_BITS,
    ID_SPACE,
    clockwise_distance,
    digit,
    is_closer_root,
    key_of,
    n_rows,
    random_nodeid,
    ring_distance,
    shared_prefix_length,
)

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)


def test_constants():
    assert ID_BITS == 128
    assert ID_SPACE == 2**128


def test_n_rows():
    assert n_rows(4) == 32
    assert n_rows(1) == 128
    assert n_rows(2) == 64
    assert n_rows(3) == 43  # partial final digit
    assert n_rows(5) == 26


def test_n_rows_rejects_zero():
    import pytest

    with pytest.raises(ValueError):
        n_rows(0)


def test_partial_final_digit():
    # b=5: rows 0..24 hold 5 bits, row 25 holds the remaining 3 bits.
    value = (1 << 128) - 1  # all ones
    assert digit(value, 24, 5) == 0b11111
    assert digit(value, 25, 5) == 0b111


def test_digit_extracts_most_significant_first():
    identifier = 0xA << (ID_BITS - 4)  # top hex digit is 'a'
    assert digit(identifier, 0, 4) == 0xA
    assert digit(identifier, 1, 4) == 0x0


def test_digit_b2():
    identifier = 0b10_01 << (ID_BITS - 4)
    assert digit(identifier, 0, 2) == 0b10
    assert digit(identifier, 1, 2) == 0b01


def test_shared_prefix_length_basic():
    a = 0x12345 << (ID_BITS - 20)
    b = 0x12245 << (ID_BITS - 20)
    assert shared_prefix_length(a, b, 4) == 2  # '12' shared, '3' vs '2'


def test_shared_prefix_length_identical():
    assert shared_prefix_length(7, 7, 4) == ID_BITS // 4


def test_ring_distance_wraps():
    assert ring_distance(0, ID_SPACE - 1) == 1
    assert ring_distance(ID_SPACE - 1, 0) == 1
    assert ring_distance(5, 10) == 5


def test_clockwise_vs_counter_clockwise():
    assert clockwise_distance(10, 15) == 5
    assert clockwise_distance(15, 10) == ID_SPACE - 5  # the long way round
    assert clockwise_distance(ID_SPACE - 1, 1) == 2


def test_is_closer_root_tie_break_to_smaller_id():
    # key equidistant from 10 and 20 -> smaller id wins
    assert is_closer_root(10, 20, 15)
    assert not is_closer_root(20, 10, 15)


def test_random_nodeid_in_range():
    rng = random.Random(1)
    for _ in range(100):
        value = random_nodeid(rng)
        assert 0 <= value < ID_SPACE


def test_key_of_deterministic_and_in_range():
    assert key_of(b"hello") == key_of(b"hello")
    assert key_of(b"hello") != key_of(b"world")
    assert 0 <= key_of(b"x") < ID_SPACE


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(ids, ids)
def test_ring_distance_symmetric(a, b):
    assert ring_distance(a, b) == ring_distance(b, a)


@given(ids, ids)
def test_ring_distance_bounded_by_half_space(a, b):
    assert 0 <= ring_distance(a, b) <= ID_SPACE // 2


@given(ids, ids)
def test_cw_ccw_complementary(a, b):
    if a != b:
        assert clockwise_distance(a, b) + clockwise_distance(b, a) == ID_SPACE
    else:
        assert clockwise_distance(a, b) == 0


@given(ids, ids)
def test_ring_distance_is_min_of_directed(a, b):
    assert ring_distance(a, b) == min(
        clockwise_distance(a, b), clockwise_distance(b, a)
    )


@given(ids, ids, st.sampled_from([1, 2, 4, 8]))
def test_shared_prefix_consistent_with_digits(a, b, base_bits):
    length = shared_prefix_length(a, b, base_bits)
    for row in range(min(length, ID_BITS // base_bits)):
        assert digit(a, row, base_bits) == digit(b, row, base_bits)
    if length < ID_BITS // base_bits:
        assert digit(a, length, base_bits) != digit(b, length, base_bits)


@given(ids, ids, st.sampled_from([1, 2, 3, 4, 5, 8]), st.data())
def test_prefix_test_by_shift_matches_shared_prefix_length(a, b, base_bits, data):
    """``Forwarding.next_hop``'s route-around asks "does this candidate share
    at least ``row`` digits with the key" once per candidate, as one shift:
    two ids agree on their first ``row`` digits iff their xor has no bit set
    at or above bit ``ID_BITS - row * b``.  ``row`` is a prefix length the
    key has with some *other* id, so ``row * b`` < ``ID_BITS``."""
    row = data.draw(st.integers(0, (ID_BITS - 1) // base_bits))
    below_prefix = ID_BITS - row * base_bits
    first_difference = data.draw(st.integers(0, ID_BITS - 1))
    for other in (b, a, a ^ (1 << first_difference),
                  a ^ (b & ((1 << first_difference + 1) - 1))):
        by_shift = not (a ^ other) >> below_prefix
        assert by_shift == (shared_prefix_length(a, other, base_bits) >= row)


@given(ids, st.sampled_from([1, 2, 4]))
def test_digits_reconstruct_identifier(value, base_bits):
    rows = ID_BITS // base_bits
    rebuilt = 0
    for row in range(rows):
        rebuilt = (rebuilt << base_bits) | digit(value, row, base_bits)
    assert rebuilt == value


@given(ids, ids, ids)
def test_is_closer_root_antisymmetric(a, b, key):
    if a != b:
        assert is_closer_root(a, b, key) != is_closer_root(b, a, key)


@given(ids, ids, ids)
def test_is_closer_root_irreflexive(a, b, key):
    assert not is_closer_root(a, a, key)
