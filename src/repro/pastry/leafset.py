"""Pastry leaf set: the l/2 closest nodeIds on each side of the owner.

The leaf sets connect the overlay nodes in a ring and are the sole state
needed for consistent routing (paper §3.1).  With fewer than ``l`` known
members the two sides wrap around the ring and overlap — that overlap is how
we detect that the leaf set spans the entire (known) ring, which is the
completeness condition for small overlays.

Storage is a sorted ring (parallel arrays of clockwise distance and
descriptor, maintained with ``bisect``) so the two sides are O(half) slices
instead of a full re-sort per read after every membership change; clockwise
distances from the owner are unique, so the slices are exactly the lists
the previous ``sorted()``-per-access implementation produced and the
protocol-visible iteration orders (``members()``, pruning) are unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Container, Dict, Iterable, List, Optional, Set

from repro.pastry.nodeid import ID_SPACE, NodeDescriptor


class LeafSet:
    __slots__ = (
        "owner",
        "size",
        "version",
        "window",
        "_members",
        "_owner_id",
        "_half",
        "_ring_keys",
        "_ring",
        "_left",
        "_right",
        "_canonical",
        "_members_list",
    )

    def __init__(self, owner: NodeDescriptor, size: int) -> None:
        self.owner = owner
        self.size = size  # l
        self.version = 0  # bumped on every membership change
        self._members: Dict[int, NodeDescriptor] = {}
        self._owner_id = owner.id
        self._half = size // 2
        # Sorted ring: clockwise distance from the owner (ascending, unique)
        # and the member descriptors in the same order.
        self._ring_keys: List[int] = []
        self._ring: List[NodeDescriptor] = []
        self._left: Optional[List[NodeDescriptor]] = None
        self._right: Optional[List[NodeDescriptor]] = None
        # True while _members is known to be in the canonical order a
        # _prune rebuild would produce for the current membership; lets
        # add() skip insert-then-prune-straight-out round trips.
        self._canonical = False
        self._members_list: Optional[List[NodeDescriptor]] = None
        #: the admission test's bounds, ``(leftmost id, rightmost id)``: an
        #: id is admitted when it lies strictly between them on the arc
        #: through the owner, ``lo < i < hi`` if ``lo < hi`` else ``i > lo or
        #: i < hi`` (the arc crosses id 0).  Below ``l`` members both are the
        #: owner's id, which admits every other id.
        self.window = (self._owner_id, self._owner_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, desc: NodeDescriptor) -> bool:
        """Insert a node; returns True if it is a member afterwards.

        Never the owner — nor a foreign id at the owner's own address: a
        hop to such a descriptor is a send to ourselves.
        """
        if desc.id == self._owner_id or desc.addr == self.owner.addr:
            return False
        previous = self._members.get(desc.id)
        if previous is not None and previous.addr == desc.addr:
            return True  # already a member, nothing changed
        if previous is None and self._canonical:
            # A non-member outside the window would be inserted mid-ring and
            # pruned straight back out: the ring ends up exactly as before
            # and the only side effect is the _members rebuild.  With
            # _members already in the canonical rebuild order (which depends
            # only on the surviving membership, not on the rejected
            # candidate) that rebuild is a no-op, so skip the whole round
            # trip.  A canonical ring is a pruned, hence full, one.
            did = desc.id
            lo, hi = self.window  # admits(), inlined
            if not (lo < did < hi if lo < hi else did > lo or did < hi):
                return False
        cw = (desc.id - self._owner_id) % ID_SPACE
        self._members[desc.id] = desc
        i = bisect_left(self._ring_keys, cw)
        if previous is None:
            self._ring_keys.insert(i, cw)
            self._ring.insert(i, desc)
            self._canonical = False
        else:
            self._ring[i] = desc  # same id, same distance: address update
        self._invalidate()
        self._prune()
        admitted = desc.id in self._members
        if admitted:
            self.version += 1
        return admitted

    def remove(self, node_id: int) -> bool:
        if self._members.pop(node_id, None) is None:
            return False
        cw = (node_id - self._owner_id) % ID_SPACE
        i = bisect_left(self._ring_keys, cw)
        del self._ring_keys[i]
        del self._ring[i]
        self.version += 1
        self._canonical = False
        self._invalidate()
        return True

    def _prune(self) -> None:
        """Drop members that fall outside both sides.

        The two sides are the ring's head and tail slices, so anything
        pruned is exactly the ring's middle; the ``_members`` rebuild keeps
        the historical set-iteration insertion order (protocol-visible via
        ``members()``).
        """
        ring = self._ring
        if len(ring) <= self.size:
            return  # both sides cover every member
        # Slice the ring directly instead of going through the side
        # properties (which would build and cache lists that the
        # _invalidate below throws away).  The set-build sequence —
        # reversed ring tail, then ring head, then a non-mutating union —
        # is kept exactly: keep-set iteration order decides the rebuilt
        # _members insertion order, which is protocol-visible through
        # members().
        half = self._half
        members = self._members
        keep = {d.id for d in ring[len(ring) - half:][::-1]} | {
            d.id for d in ring[:half]
        }
        self._members = {i: members[i] for i in keep}
        del self._ring_keys[half:-half]
        del ring[half:-half]
        self._canonical = True
        self._invalidate()

    def _invalidate(self) -> None:
        self._left = None
        self._right = None
        self._members_list = None
        ring = self._ring
        n = len(ring)
        if n < self.size:
            self.window = (self._owner_id, self._owner_id)
        else:
            # Leftmost: ring tail's far end; rightmost: ring head's far end.
            self.window = (ring[n - self._half].id, ring[self._half - 1].id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def left_side(self) -> List[NodeDescriptor]:
        """Members counter-clockwise of the owner, closest first."""
        if self._left is None:
            # Counter-clockwise distance is ID_SPACE - clockwise distance,
            # so closest-first on the left is the ring tail, reversed.
            n = len(self._ring)
            self._left = self._ring[max(0, n - self._half):][::-1]
        return self._left

    @property
    def right_side(self) -> List[NodeDescriptor]:
        """Members clockwise of the owner, closest first."""
        if self._right is None:
            self._right = self._ring[: self._half]
        return self._right

    @property
    def leftmost(self) -> Optional[NodeDescriptor]:
        left = self.left_side
        return left[-1] if left else None

    @property
    def rightmost(self) -> Optional[NodeDescriptor]:
        right = self.right_side
        return right[-1] if right else None

    @property
    def left_neighbour(self) -> Optional[NodeDescriptor]:
        left = self.left_side
        return left[0] if left else None

    @property
    def right_neighbour(self) -> Optional[NodeDescriptor]:
        right = self.right_side
        return right[0] if right else None

    def members(self) -> List[NodeDescriptor]:
        """Members in protocol-visible (historical insertion) order.

        The list is cached until the next membership/address change and
        shared between callers; nothing in the codebase mutates it (callers
        iterate or concatenate), which keeps the cache sound.
        """
        mem = self._members_list
        if mem is None:
            mem = self._members_list = list(self._members.values())
        return mem

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        return self._members.get(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------
    # Predicates used by routing and the consistency protocol
    # ------------------------------------------------------------------
    def wrapped(self) -> bool:
        """Whether the two sides share a member.

        With per-direction closest-first sides this is equivalent (by
        pigeonhole) to knowing fewer than ``l`` members: either the overlay
        really is small and the leaf set spans the whole ring, or the set
        lost members and is mid-repair; the owner cannot distinguish the two
        locally, so routing treats the set as ring-covering while the repair
        machinery (probe announcements plus extreme re-probing) refills it.
        """
        return 0 < len(self._members) < self.size

    def covers(self, key: int) -> bool:
        """Whether ``key`` lies on the leftmost→rightmost arc through the owner.

        The admission window with its ends included.  Below ``l`` members
        the set wraps, i.e. spans the entire known ring (no member: the
        owner is root of everything), and the window covers every key.
        """
        lo, hi = self.window
        return lo <= key <= hi if lo < hi else key >= lo or key <= hi

    def admits(self, node_id: int) -> bool:
        """The admission test: whether ``node_id`` lies inside :attr:`window`,
        i.e. either side is not full or the id is closer than the current
        extreme on that side.  Members (the extremes excepted) and the owner
        lie inside too; :meth:`would_admit` vetoes them.  The hot paths
        (:meth:`add`, :meth:`admitted`, the leaf-set exchange) inline these
        two comparisons."""
        lo, hi = self.window
        return lo < node_id < hi if lo < hi else node_id > lo or node_id < hi

    def would_admit(self, desc: NodeDescriptor) -> bool:
        """Whether ``desc`` would become a member if added (without adding).

        Used to avoid probing leaf-set candidates that would be pruned
        immediately: :meth:`admits`, less the owner, the members and a
        foreign id at the owner's address.
        """
        did = desc.id
        if did == self._owner_id or did in self._members or desc.addr == self.owner.addr:
            return False
        return self.admits(did)

    def admitted(self, descs: Iterable[NodeDescriptor]) -> Set[int]:
        """Ids of the ``descs`` :meth:`would_admit` accepts, in one call (the
        failure memory's relevance scans)."""
        owner_id, owner_addr, members = self._owner_id, self.owner.addr, self._members
        lo, hi = self.window
        return {
            d.id for d in descs
            if (lo < d.id < hi if lo < hi else d.id > lo or d.id < hi)
            and d.id != owner_id and d.id not in members and d.addr != owner_addr
        }

    def closest_to(self, key: int, *unusable: Container[int]) -> NodeDescriptor:
        """Root of ``key`` among the owner and the usable members.

        The order is ``(ring_distance to key, id)`` — a strict total order,
        so every node resolves the same root whatever order it learnt its
        members in.  A member is unusable when any of the ``unusable`` id
        containers holds its id; the owner always qualifies.

        Unroll the ring at the owner: the owner sits at clockwise offset 0
        *and* ``ID_SPACE``, the members at their sorted offsets in between,
        the key at ``k``.  The root is then the nearer of the first usable
        entry at or above ``k`` and the first one below it — a member
        reached the other way round the ring lies beyond the owner, which
        is closer.  The two gaps sum to at most ``ID_SPACE``, so the smaller
        one is a true ring distance and no half-space fold is needed; the
        owner ends both walks, so wrapped sets need no modular indexing.
        """
        ring = self._ring
        keys = self._ring_keys
        n = len(ring)
        k = (key - self._owner_id) % ID_SPACE
        i = bisect_left(keys, k)
        # The usability test is spelled out in both walks: as a helper it
        # was a call per candidate, on every hop.
        up = i
        while up < n:
            member_id = ring[up].id
            for ids in unusable:
                if member_id in ids:
                    break
            else:
                break  # usable
            up += 1
        down = i - 1
        while down >= 0:
            member_id = ring[down].id
            for ids in unusable:
                if member_id in ids:
                    break
            else:
                break  # usable
            down -= 1
        if up == n:
            above, above_gap = self.owner, ID_SPACE - k
        else:
            above, above_gap = ring[up], keys[up] - k
        if down < 0:
            below, below_gap = self.owner, k
        else:
            below, below_gap = ring[down], k - keys[down]
        if above_gap != below_gap:
            return above if above_gap < below_gap else below
        return above if above.id < below.id else below
