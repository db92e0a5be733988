"""Per-node state with one invariant each: probes, failure memory, recency.

The protocol components (join, maintenance, liveness, forwarding) share
these through the node; each hides the bookkeeping its callers used to
repeat — the retry/timeout machine, the version bump that keeps the
advertised-failures memo valid, the prune that bounds a recency map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Dict, Iterable, List, Sequence

from repro.interfaces import Clock, TimerHandle
from repro.pastry.nodeid import NodeDescriptor

MAX_FAILED_REMEMBERED = 128


@dataclass(slots=True)
class _ProbeState:
    desc: NodeDescriptor
    retries: int
    timer: TimerHandle


class ProbeTable:
    """Figure 2's probe / probe-timeout machine for one kind of probe.

    ``send(descs)`` puts one probe per descriptor on the wire; a probe
    unanswered after ``timeout`` is re-sent up to ``max_retries`` times and
    then handed to ``exhausted(desc)`` — *still pending*, so the owner
    decides whether it leaves the table before or after the node is marked
    faulty.  Callers veto duplicates: a descriptor already pending must not
    be started again.
    """

    __slots__ = ("pending", "_clock", "_timeout", "_max_retries", "_send", "_exhausted")

    def __init__(
        self,
        clock: Clock,
        timeout: float,
        max_retries: int,
        send: Callable[[Sequence[NodeDescriptor]], None],
        exhausted: Callable[[NodeDescriptor], None],
    ) -> None:
        self.pending: Dict[int, _ProbeState] = {}
        self._clock = clock
        self._timeout = timeout
        self._max_retries = max_retries
        self._send = send
        self._exhausted = exhausted

    def start(self, desc: NodeDescriptor) -> None:
        self.pending[desc.id] = _ProbeState(
            desc, 0, self._clock.schedule(self._timeout, self._timed_out, desc.id)
        )
        self._send((desc,))

    def start_all(self, descs: Sequence[NodeDescriptor]) -> None:
        """:meth:`start` over a burst: every timer is armed before the
        first probe goes out (the golden traces pin that order), and
        ``send`` sees the whole burst so it can build its payload once."""
        pending = self.pending
        schedule = self._clock.schedule
        timeout = self._timeout
        timed_out = self._timed_out
        for desc in descs:
            pending[desc.id] = _ProbeState(
                desc, 0, schedule(timeout, timed_out, desc.id)
            )
        if descs:
            self._send(descs)

    def _timed_out(self, node_id: int) -> None:
        state = self.pending.get(node_id)
        if state is None:
            return
        if state.retries < self._max_retries:
            state.retries += 1
            state.timer = self._clock.schedule(
                self._timeout, self._timed_out, node_id
            )
            self._send((state.desc,))
            return
        self._exhausted(state.desc)

    def resolve(self, node_id: int) -> None:
        """The probe was answered, or its target given up on."""
        state = self.pending.pop(node_id, None)
        if state is not None:
            state.timer.cancel()

    def cancel_all(self) -> None:
        for state in self.pending.values():
            state.timer.cancel()
        self.pending.clear()


#: ``relevant(descs)`` -> the ids among ``descs`` that still belong in the
#: leaf set (``LeafSet.admitted``): asked once per scan, not once per entry
Relevant = Callable[[Iterable[NodeDescriptor]], Container[int]]


class FailureMemory:
    """Confirmed failures: who, since when, and how long before a re-probe.

    ``failed`` vetoes probes and routing; its insertion order is protocol-
    visible (eviction and expiry walk it).  ``failed_at`` has the same keys,
    and ``backoff`` all of them and more.  ``advertised`` is memoized: valid while the maps are
    unmutated (version check — bumped here, by every mutator, so it is no
    caller's job) and no advertised entry has aged past the memory horizon
    (expiry check).
    """

    __slots__ = ("failed", "failed_at", "backoff", "_memory", "_backoff_max",
                 "_version", "_adv", "_adv_version", "_adv_expiry")

    def __init__(self, memory: float, backoff_max: float) -> None:
        self.failed: Dict[int, NodeDescriptor] = {}
        self.failed_at: Dict[int, float] = {}
        self.backoff: Dict[int, float] = {}
        self._memory = memory
        self._backoff_max = backoff_max
        self._version = 0
        self._adv: List[NodeDescriptor] = []
        self._adv_version = -1
        self._adv_expiry = 0.0

    def mark(self, desc: NodeDescriptor, now: float, relevant: Relevant) -> bool:
        """Remember a failure; True unless it re-observes a known corpse."""
        self._version += 1
        failed = self.failed
        if len(failed) >= MAX_FAILED_REMEMBERED:
            # Evict a non-leaf-relevant entry if one exists: a remembered
            # failure that still belongs in the leaf set is the expiry
            # retry's only path back to an expelled-but-recovered ring
            # neighbour, and silently dropping it orphans that neighbour
            # for good (nobody else holds a reference to probe).
            keep = relevant(failed.values())
            for evicted in failed:
                if evicted not in keep:
                    self.backoff.pop(evicted, None)
                    break
            else:
                evicted = next(iter(failed))
            failed.pop(evicted)
            self.failed_at.pop(evicted, None)
        failed[desc.id] = desc
        self.failed_at[desc.id] = now
        # Exponential re-probe backoff (see expire): a node failing again
        # straight after an expiry retry waits twice as long next time.
        fresh = desc.id not in self.backoff
        self.backoff[desc.id] = min(
            2.0 * self.backoff.get(desc.id, self._memory / 2.0), self._backoff_max
        )
        return fresh

    def forget(self, node_id: int) -> None:
        """The node proved itself alive: drop all failure memory for it."""
        if self.failed.pop(node_id, None) is not None:
            self._version += 1
        self.failed_at.pop(node_id, None)
        self.backoff.pop(node_id, None)

    def clear_stale(self, relevant: Relevant) -> None:
        """A complete leaf set makes most failure memory stale, but entries
        that would still be admitted are the ring's own neighbourhood: they
        survive so :meth:`expire` can reach an expelled-but-recovered
        neighbour that no longer appears in anyone's routing state.
        Backoffs survive in full on purpose: a flapping gray node must not
        get its retry cadence reset every time the leaf set completes."""
        keep = relevant(self.failed.values())
        stale = [fid for fid in self.failed if fid not in keep]
        if stale:
            self._version += 1
        for node_id in stale:
            del self.failed[node_id]
            self.failed_at.pop(node_id, None)

    def expire(self, now: float, relevant: Relevant) -> List[NodeDescriptor]:
        """Drop failures older than their backoff; return those to re-probe.

        Under crash-stop an eternal failed set is harmless, but a gray node
        (receive-only or out-lossy for a while) ends up expelled everywhere
        with *everyone* in its own failed set — and since probes are vetoed
        by that set, two such nodes can lock into a mutually consistent
        islet no outside traffic ever reaches.  Expiry is the escape hatch:
        a remembered failure older than its backoff is dropped, and
        re-probed once if it still belongs in the leaf set.
        """
        backoff = self.backoff
        base = self._memory
        expired = [
            node_id
            for node_id, since in self.failed_at.items()
            if now - since >= backoff.get(node_id, base)
        ]
        if not expired:
            return []
        self._version += 1
        failed = self.failed
        keep = relevant([failed[node_id] for node_id in expired])
        retry = []
        for node_id in expired:
            desc = failed.pop(node_id)
            del self.failed_at[node_id]
            if node_id in keep:
                retry.append(desc)
            else:
                # No longer leaf-relevant: forget it entirely so the
                # backoff table cannot grow without bound.
                backoff.pop(node_id, None)
        return retry

    def advertised(self, now: float) -> List[NodeDescriptor]:
        """Failure claims worth announcing: entries younger than the memory.

        An old entry is stale news — everyone in range heard the claim when
        it was fresh, and re-broadcasting it for the whole (backed-off)
        retry interval makes every receiver that still lists the node
        re-verify it on each exchange, which under membership flapping
        amplifies into a probe storm.
        """
        if self._adv_version == self._version and now < self._adv_expiry:
            # A fresh copy, so callers (messages in flight) never alias.
            return list(self._adv)
        memory = self._memory
        horizon = now - memory
        failed_at = self.failed_at
        advertised = []
        next_expiry = float("inf")
        for node_id, desc in self.failed.items():
            at = failed_at.get(node_id, -1e18)
            if at >= horizon:
                advertised.append(desc)
                if at + memory < next_expiry:
                    next_expiry = at + memory
        self._adv = advertised
        self._adv_version = self._version
        self._adv_expiry = next_expiry
        return list(advertised)


class RecencyMap(dict):
    """node id -> when we last heard from / sent to / exchanged with it.

    Only ever *read* through strict recency comparisons (``t > now -
    horizon``), so an entry older than the largest horizon a reader can use
    is indistinguishable from an absent one and can be dropped.  Long-lived
    nodes would otherwise remember a timestamp for every peer they ever
    exchanged a message with — the dominant per-node memory cost at paper
    scale.  Writers store with ``m[k] = now`` and call :meth:`sweep` once
    ``len(m) >= m.cap`` (two inline lines: the three writers are the
    per-message path, where a method call per store would be the cost).
    Pruning touches no RNG and schedules no events, so the event stream and
    every protocol decision are byte-identical.
    """

    __slots__ = ("horizon", "cap")

    def __init__(self, horizon: float) -> None:
        self.horizon = horizon
        self.cap = 128

    def sweep(self, now: float) -> None:
        """Drop what no reader can distinguish from absent, in place:
        deleting dead keys leaves the survivors in the order a filtered
        rebuild would produce, without copying the (mostly surviving) bulk.
        The cap doubles when a sweep frees nothing."""
        cutoff = now - self.horizon
        for key in [k for k, v in self.items() if v <= cutoff]:
            del self[key]
        self.cap = max(128, 2 * len(self))
