"""The fault table the transport consults on every send and delivery.

:class:`FaultState` is the single mutable object wiring fault injection
into :class:`repro.network.transport.Network`: the transport asks it
whether an outgoing message is dropped (gray sender, partition cut, burst
loss), whether an in-flight message may still be delivered (a partition
that started mid-flight), and how much extra delay the message suffers
(gray slowness, link jitter).  :class:`repro.faults.schedule.FaultSchedule`
mutates it at fault start/stop times.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.models import GEParams, GilbertElliott, JitterParams
from repro.sim.engine import Simulator


@dataclass(frozen=True, slots=True)
class GrayFailure:
    """A node that stays registered but misbehaves.

    ``out_drop`` is the fraction of *outgoing* messages silently dropped
    (1.0 = receive-only, "stuck"); ``delay_factor`` inflates the delay of
    the messages that do get out (a slow node responds late).
    Incoming traffic is untouched — that is what makes the failure gray:
    peers keep reaching the node, it just stops pulling its weight.
    """

    out_drop: float = 0.0
    delay_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.out_drop <= 1.0:
            raise ValueError(f"out_drop out of [0, 1]: {self.out_drop}")
        if self.delay_factor < 1.0:
            raise ValueError("delay inflation cannot speed a node up")

    @classmethod
    def stuck(cls) -> "GrayFailure":
        """Receive-only: hears everything, says nothing."""
        return cls(out_drop=1.0)

    @classmethod
    def slow(cls, factor: float = 5.0) -> "GrayFailure":
        return cls(delay_factor=factor)

    @classmethod
    def lossy(cls, out_drop: float = 0.5) -> "GrayFailure":
        return cls(out_drop=out_drop)


class FaultState:
    """Active faults, consulted by ``Network.send`` / ``Network._deliver``.

    All randomness comes from the single ``rng`` handed in (a named stream
    derived from the master seed), so fault injection is deterministic and
    does not perturb any other subsystem's draws.
    """

    __slots__ = ("sim", "_rng", "_groups", "_gray", "_burst", "_links", "_jitter",
                 "engaged", "drops", "_adversaries", "adversary_counters")

    def __init__(self, sim: Simulator, rng: random.Random) -> None:
        self.sim = sim
        self._rng = rng
        self._groups: Dict[int, int] = {}  # addr -> partition group
        self._gray: Dict[int, GrayFailure] = {}
        self._burst: Optional[GEParams] = None
        self._links: Dict[Tuple[int, int], GilbertElliott] = {}
        self._jitter: Optional[JitterParams] = None
        #: whether a partition, gray node, burst loss or jitter is installed.
        #: While it is False every hook below is a no-op that draws nothing,
        #: so the transport skips them on this one attribute.
        self.engaged = False
        #: messages dropped by each fault kind ("gray", "partition", "burst")
        self.drops: Dict[str, int] = defaultdict(int)
        #: addr -> installed behavior overlay (repro.adversary.ActiveAdversary)
        self._adversaries: Dict[int, object] = {}
        #: attack-activity counters shared by all of a run's overlays
        #: (lookups_dropped, lookups_misrouted, acks_spoofed, ...)
        self.adversary_counters: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Mutation (driven by FaultSchedule)
    # ------------------------------------------------------------------
    def set_partition(self, groups: Dict[int, int]) -> None:
        """Install a partition: addresses in different groups cannot talk.

        Addresses absent from ``groups`` (e.g. nodes that attach while the
        partition is up) default to group 0.
        """
        self._groups = dict(groups)
        self._engage()

    def heal_partition(self) -> None:
        self._groups = {}
        self._engage()

    def set_burst_loss(self, params: GEParams) -> None:
        self._burst = params
        self._links = {}
        self._engage()

    def clear_burst_loss(self) -> None:
        self._burst = None
        self._links = {}
        self._engage()

    def set_jitter(self, params: JitterParams) -> None:
        self._jitter = params
        self._engage()

    def clear_jitter(self) -> None:
        self._jitter = None
        self._engage()

    def set_gray(self, addr: int, gray: GrayFailure) -> None:
        self._gray[addr] = gray
        self._engage()

    def clear_gray(self) -> None:
        """Clear every gray failure."""
        self._gray = {}
        self._engage()

    def _engage(self) -> None:
        self.engaged = bool(self._groups or self._gray or self._burst is not None
                            or self._jitter is not None)

    def set_adversary(self, addr: int, overlay) -> None:
        """Install a Byzantine behavior overlay on the node at ``addr``.

        The overlay (an ``ActiveAdversary``) hooks itself into the node's
        message handling on ``install()``; a previous overlay on the same
        address is uninstalled first.
        """
        old = self._adversaries.pop(addr, None)
        if old is not None:
            old.uninstall()
        self._adversaries[addr] = overlay
        overlay.install()

    def clear_adversaries(self) -> None:
        """Revoke all compromised nodes (clear-all revert semantics)."""
        for overlay in self._adversaries.values():
            overlay.uninstall()
        self._adversaries = {}

    # ------------------------------------------------------------------
    # Queries (hot path: called by the transport)
    # ------------------------------------------------------------------
    def _cut(self, src: int, dst: int) -> bool:
        groups = self._groups
        return bool(groups) and groups.get(src, 0) != groups.get(dst, 0)

    def filter_send(self, src: int, dst: int) -> Optional[str]:
        """Drop cause for an outgoing message, or None to let it through."""
        gray = self._gray.get(src)
        if (
            gray is not None
            and gray.out_drop > 0.0
            and self._rng.random() < gray.out_drop
        ):
            self.drops["gray"] += 1
            return "gray"
        if self._cut(src, dst):
            self.drops["partition"] += 1
            return "partition"
        if self._burst is not None:
            link = self._links.get((src, dst))
            if link is None:
                link = GilbertElliott(self._burst, self._rng, self.sim.now)
                self._links[(src, dst)] = link
            if link.loses(self.sim.now):
                self.drops["burst"] += 1
                return "burst"
        return None

    def filter_deliver(self, src: int, dst: int) -> Optional[str]:
        """Drop cause at delivery time (partitions cut in-flight traffic)."""
        if self._cut(src, dst):
            self.drops["partition"] += 1
            return "partition"
        return None

    def adjust_delay(self, src: int, dst: int, delay: float) -> float:
        """Inflate the one-way delay for gray slowness and link jitter."""
        gray = self._gray.get(src)
        if gray is not None:
            delay = delay * gray.delay_factor
        if self._jitter is not None:
            delay += self._jitter.draw(self._rng)
        return delay
