"""Pastry identifier space: 128-bit ring arithmetic and digit helpers.

NodeIds and keys are 128-bit unsigned integers; a key is mapped to the
active node whose identifier is numerically closest to it modulo 2^128.
Routing interprets identifiers as digit strings in base 2^b.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

ID_BITS = 128
ID_SPACE = 1 << ID_BITS
HALF_SPACE = ID_SPACE >> 1


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    """Identity of an overlay node: nodeId plus network address."""

    id: int
    addr: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.id:032x}@{self.addr})"


_DESCRIPTOR_INTERN: Dict[Tuple[int, int], NodeDescriptor] = {}


def intern_descriptor(node_id: int, addr: int) -> NodeDescriptor:
    """Canonical ``NodeDescriptor`` for ``(node_id, addr)``.

    Every caller asking for the same identity gets the *same* object, so a
    live node is represented by one descriptor shared by reference across
    leaf sets, routing tables and in-flight messages instead of thousands
    of equal copies.  The table is bounded by the number of distinct nodes
    ever created in the process (descriptors are a few dozen bytes each).
    """
    key = (node_id, addr)
    desc = _DESCRIPTOR_INTERN.get(key)
    if desc is None:
        desc = NodeDescriptor(node_id, addr)
        _DESCRIPTOR_INTERN[key] = desc
    return desc


def random_nodeid(rng: random.Random) -> int:
    """Uniformly random 128-bit nodeId."""
    return rng.getrandbits(ID_BITS)


def key_of(data: bytes) -> int:
    """Map arbitrary bytes into the identifier space (SHA-1 style)."""
    return int.from_bytes(hashlib.sha1(data).digest()[:16], "big")


def n_rows(b: int) -> int:
    """Number of routing-table rows for digit size ``b``.

    When ``b`` does not divide 128 (the paper sweeps b = 1..5) the last row
    holds a shorter, partial digit.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1: {b}")
    return (ID_BITS + b - 1) // b


def digit(identifier: int, row: int, b: int) -> int:
    """The ``row``-th base-2^b digit of ``identifier``, most significant first.

    The final digit is partial when ``b`` does not divide 128.
    """
    shift = ID_BITS - (row + 1) * b
    if shift >= 0:
        return (identifier >> shift) & ((1 << b) - 1)
    return identifier & ((1 << (ID_BITS - row * b)) - 1)


def shared_prefix_length(a: int, b_id: int, b: int) -> int:
    """Number of leading base-2^b digits shared by two identifiers."""
    if a == b_id:
        return n_rows(b)
    xor = a ^ b_id
    # Position of the highest differing bit, counted from the MSB.
    high_bit = ID_BITS - xor.bit_length()
    return high_bit // b


def ring_distance(a: int, b_id: int) -> int:
    """Shortest distance around the ring (used for root determination)."""
    d = (a - b_id) % ID_SPACE
    return d if d <= HALF_SPACE else ID_SPACE - d


def clockwise_distance(a: int, b_id: int) -> int:
    """Distance travelling clockwise (increasing ids) from ``a`` to ``b_id``."""
    return (b_id - a) % ID_SPACE


def is_closer_root(candidate: int, incumbent: int, key: int) -> bool:
    """Whether ``candidate`` is a strictly better root for ``key``.

    Ties in ring distance are broken towards the numerically smaller
    identifier so every node resolves the same root.
    """
    dc, di = ring_distance(candidate, key), ring_distance(incumbent, key)
    if dc != di:
        return dc < di
    return candidate < incumbent


def root_among(sorted_ids: Sequence[int], key: int) -> int:
    """The root of ``key`` among the ids of a non-empty ascending sequence.

    The global-view form of the root rule (oracles, harness scoring): the
    root is one of the key's two ring neighbours, found by bisection.
    """
    i = bisect_left(sorted_ids, key)
    above = sorted_ids[i] if i < len(sorted_ids) else sorted_ids[0]
    below = sorted_ids[i - 1]  # i == 0 wraps to the largest id
    return below if is_closer_root(below, above, key) else above
