"""Runtime invariant checking against the ground-truth oracle.

This module runs *during* a simulation: a periodic sweep that compares
every active node's routing state against the oracle's global view and
records violations — with timestamps — instead of crashing
(:meth:`InvariantChecker.check_now` is the one-shot form tests use).
Experiments use the series to report how long the overlay takes to
reconverge after an injected fault.

Checked invariants (per sweep, counts per kind):

``ring``
    Every active node's leaf set contains its true ring successor and
    predecessor (among *active* nodes).  A partition that fails to re-merge
    shows up here forever.
``leafset_mutual``
    If A lists active node B as a leaf and A falls inside B's leaf-set
    range, B must list A — leaf-set membership near the owner is mutual.
    Mutuality is eventually consistent under churn: B learns about A the
    next time A contacts it (a heartbeat, a routed lookup, or A's
    periodic routing-state probe — worst case one state-sweep period
    away), so a pair counts as a violation only once it has stayed
    inconsistent for ``MUTUAL_GRACE`` seconds.
``dead_leaf`` / ``dead_rt``
    No leaf-set (routing-table) entry still points at a node that has been
    dead longer than the detection machinery needs (``LEAF_GRACE`` /
    ``RT_GRACE`` seconds).  An entry that binds a live id to an address that
    is not that node's own reaches no one who answers for the id either, so
    it counts the same way once it has been held for the same grace.  Fresh
    corpses are not violations: immediate
    neighbours notice within a heartbeat period and failure announcements
    usually ripple outward fast, but the only *guaranteed* cleanup of a
    dead member far along a leaf-set side — or of a routing-table entry —
    is the periodic state sweep (``pastry.config.STATE_SWEEP_PERIOD``,
    900 s).  The graces sit just past one (leaf sets) and two (routing
    tables) sweep periods so only state that outlived its cleanup guarantee
    counts as a violation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.overlay.oracle import Oracle
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTask

#: violation kinds, in reporting order
KINDS = ("ring", "leafset_mutual", "dead_leaf", "dead_rt")
#: seconds a dead or misbound leaf-set entry may stand: one state sweep
LEAF_GRACE = 960.0
#: ... and a routing-table entry: two state sweeps
RT_GRACE = 1860.0
#: seconds a one-sided leaf-set pair may stand: one state sweep
MUTUAL_GRACE = 960.0


class InvariantChecker:
    """Periodic overlay-wide invariant sweep.

    ``on_report(sim_time, counts)`` is called after every sweep — zero
    counts included, so consumers can compute time-to-reconvergence from
    the first clean sweep after a fault.  The metrics collector's
    ``on_invariant_check`` is the intended sink.
    """

    def __init__(
        self,
        sim: Simulator,
        oracle: Oracle,
        period: float = 30.0,
        on_report: Optional[Callable[[float, Dict[str, int]], None]] = None,
        start_delay: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.oracle = oracle
        self.on_report = on_report
        self.sweeps = 0
        self._death_time: Dict[int, float] = {}
        self._mutual_since: Dict[Tuple[int, int], float] = {}
        #: (id, address) -> first sweep that saw a live id held at that
        #: foreign address; a pair no sweep sees any more stops aging
        self._misbound_since: Dict[Tuple[int, int], float] = {}
        self._known_alive: Set[int] = set(oracle.alive_ids())
        self._started_at = sim.now
        self._task = PeriodicTask(sim, period, self._tick, start_delay=start_delay)

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    def _note_deaths(self) -> None:
        """Track when each node was first observed dead.

        The oracle does not retain crashed nodes, so the checker diffs the
        alive set every sweep; death times are accurate to one period,
        which the grace windows absorb.  Ids that were already referenced
        but never observed alive (died before the checker started) are
        dated to the checker's start.
        """
        alive = set(self.oracle.alive_ids())
        now = self.sim.now
        # sorted: set-difference order would decide _death_time's insertion
        # order, which any future iteration of the dict would inherit.
        for node_id in sorted(self._known_alive - alive):
            self._death_time.setdefault(node_id, now)
        self._known_alive = alive

    def _stale_longer_than(self, desc, addr: Optional[int], grace: float,
                           misbound: Dict[Tuple[int, int], float]) -> bool:
        """Whether ``desc``, whose id is dead (``addr`` None) or alive at
        ``addr`` rather than ``desc.addr``, has been held so for ``grace``
        seconds (``misbound`` collects this sweep's live-id pairs)."""
        if addr is None:
            since = self._death_time.setdefault(desc.id, self._started_at)
        else:
            key = (desc.id, desc.addr)
            since = misbound[key] = self._misbound_since.get(key, self.sim.now)
        return self.sim.now - since >= grace

    # ------------------------------------------------------------------
    def check_now(self) -> Dict[str, int]:
        """Run one sweep; returns violation counts for every kind."""
        self._note_deaths()
        counts = {kind: 0 for kind in KINDS}
        oracle = self.oracle
        ids = oracle.active_ids()
        n = len(ids)

        if n >= 2:
            for i, node_id in enumerate(ids):
                node = oracle.get_active(node_id)
                successor = ids[(i + 1) % n]
                if successor != node_id and successor not in node.leaf_set:
                    counts["ring"] += 1
                predecessor = ids[(i - 1) % n]
                if predecessor != node_id and predecessor not in node.leaf_set:
                    counts["ring"] += 1

        now = self.sim.now
        mutual_now: Set[Tuple[int, int]] = set()
        misbound: Dict[Tuple[int, int], float] = {}
        stale = self._stale_longer_than
        address = oracle.addresses().get
        get_active = oracle.get_active
        for node_id in ids:
            node = get_active(node_id)
            for desc in node.leaf_set.members():
                addr = address(desc.id)
                if addr != desc.addr and stale(desc, addr, LEAF_GRACE, misbound):
                    counts["dead_leaf"] += 1
                peer = get_active(desc.id)
                if peer is None:
                    continue
                if (
                    node_id not in peer.leaf_set
                    and peer.leaf_set.would_admit(node.descriptor)
                ):
                    pair = (node_id, desc.id)
                    mutual_now.add(pair)
                    since = self._mutual_since.setdefault(pair, now)
                    if now - since >= MUTUAL_GRACE:
                        counts["leafset_mutual"] += 1
            for desc in node.routing_table.entries():
                addr = address(desc.id)
                if addr != desc.addr and stale(desc, addr, RT_GRACE, misbound):
                    counts["dead_rt"] += 1

        # pairs that repaired themselves stop aging
        for pair in list(self._mutual_since):
            if pair not in mutual_now:
                del self._mutual_since[pair]
        self._misbound_since = misbound

        return counts

    def _tick(self) -> None:
        counts = self.check_now()
        self.sweeps += 1
        if self.on_report is not None:
            self.on_report(self.sim.now, counts)
