"""Pastry routing table: 128/b rows × 2^b columns of prefix-matched entries.

The entry at (row r, column c) holds a node whose id shares the first r
digits with the owner and has digit c at position r.  When proximity
neighbour selection is enabled, a slot prefers the entry with the smallest
network proximity among eligible candidates.

Slots are stored in a dict keyed by the flat index ``row * cols + col``
(one small int instead of a tuple per lookup on the per-message routing
path); the mapping is bijective, so insertion order — and therefore the
protocol-visible ``entries()`` order — is identical to the previous
tuple-keyed storage.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.pastry.nodeid import ID_BITS, NodeDescriptor, n_rows

_INF = float("inf")


class RoutingTable:
    __slots__ = ("owner", "b", "rows", "cols", "_owner_id", "_slots", "_slot_of")

    def __init__(self, owner: NodeDescriptor, b: int) -> None:
        self.owner = owner
        self.b = b
        self.rows = n_rows(b)
        self.cols = 1 << b
        self._owner_id = owner.id
        self._slots: Dict[int, NodeDescriptor] = {}  # row * cols + col -> node
        self._slot_of: Dict[int, int] = {}  # node id -> flat slot index

    # ------------------------------------------------------------------
    def _flat_for(self, node_id: int) -> int:
        """Flat slot index for ``node_id`` (caller excludes the owner)."""
        b = self.b
        xor = node_id ^ self._owner_id
        row = (ID_BITS - xor.bit_length()) // b
        shift = ID_BITS - (row + 1) * b
        if shift >= 0:
            col = (node_id >> shift) & (self.cols - 1)
        else:  # partial final digit when b does not divide 128
            col = node_id & ((1 << (ID_BITS - row * b)) - 1)
        return row * self.cols + col

    def slot_for(self, node_id: int) -> Optional[Tuple[int, int]]:
        """The (row, col) where ``node_id`` belongs, or None for the owner."""
        if node_id == self._owner_id:
            return None
        return divmod(self._flat_for(node_id), self.cols)

    def get(self, row: int, col: int) -> Optional[NodeDescriptor]:
        return self._slots.get(row * self.cols + col)

    def entry_for(self, node_id: int) -> Optional[NodeDescriptor]:
        slot = self._slot_of.get(node_id)
        return self._slots[slot] if slot is not None else None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slots)

    def entries(self) -> List[NodeDescriptor]:
        return list(self._slots.values())

    def row_entries(self, row: int) -> List[NodeDescriptor]:
        cols = self.cols
        return [d for f, d in self._slots.items() if f // cols == row]

    def occupied_rows(self) -> List[int]:
        cols = self.cols
        return sorted({f // cols for f in self._slots})

    # ------------------------------------------------------------------
    def add(
        self,
        desc: NodeDescriptor,
        proximity: Optional[Mapping[int, float]] = None,
    ) -> bool:
        """Consider ``desc`` for its slot.

        Empty slots are always filled.  An occupied slot is replaced only
        when a ``proximity`` map (node id -> measured proximity; missing
        nodes rank last) is supplied and the candidate is strictly closer
        (proximity neighbour selection).  Returns True when the table
        changed.  Never the owner, nor a foreign id at the owner's own
        address (see ``LeafSet.add``).
        """
        if desc.addr == self.owner.addr:
            return False
        node_id = desc.id
        flat = self._slot_of.get(node_id)
        if flat is not None:  # this id already holds its slot
            if self._slots[flat].addr != desc.addr:  # rejoined, new address
                self._slots[flat] = desc
                return True
            return False
        if node_id == self._owner_id:
            return False
        flat = self._flat_for(node_id)
        current = self._slots.get(flat)
        if current is None:
            self._install(flat, desc)
            return True
        if proximity is not None:
            get = proximity.get
            if get(node_id, _INF) < get(current.id, _INF):
                del self._slot_of[current.id]
                self._install(flat, desc)
                return True
        return False

    def _install(self, flat: int, desc: NodeDescriptor) -> None:
        self._slots[flat] = desc
        self._slot_of[desc.id] = flat

    def remove(self, node_id: int) -> bool:
        slot = self._slot_of.pop(node_id, None)
        if slot is None:
            return False
        del self._slots[slot]
        return True

    # ------------------------------------------------------------------
    def next_hop(self, key: int) -> Optional[NodeDescriptor]:
        """Primary routing step: the entry matching one more digit of ``key``."""
        if key == self._owner_id:
            return None  # shares every digit with the owner: no further hop
        return self._slots.get(self._flat_for(key))
