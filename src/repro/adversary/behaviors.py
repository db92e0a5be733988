"""Per-node Byzantine behavior overlays on MSPastry message handling.

An :class:`ActiveAdversary` is installed on a live :class:`MSPastryNode`
(``node.adversary = overlay``) and intercepts messages *after* the node's
sender bookkeeping but *before* the protocol handler runs — the compromised
node keeps maintaining its own routing state (that is what makes it a
Byzantine member rather than a crashed one) while lying to everyone else.
The composable knobs in :class:`AdversaryParams`:

* ``drop`` — silently consume routed lookups (a blackhole),
* ``misroute`` — forward lookups to a colluder (or a random known node)
  instead of the correct next hop,
* ``spoof_acks`` — acknowledge the previous hop for messages that were in
  fact dropped or diverted, defeating the per-hop-ack reroute defence,
* ``poison_joins`` — append self and colluders to the routing rows a join
  request accumulates en route (table poisoning),
* ``eclipse`` — capture join requests outright: ack the previous hop and
  answer the joiner with colluder-only routing state,
* ``spam_period``/``spam_fanout`` — periodic probe spam at routing-state
  members (maintenance-traffic amplification).

All randomness comes from the fault RNG stream handed in at install time,
so attack runs are deterministic and do not perturb any honest subsystem's
draws.  When no overlay is installed the per-message cost on the node hot
path is a single attribute test (see ``MSPastryNode._on_message``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.pastry import messages as m
from repro.pastry.nodeid import NodeDescriptor
from repro.sim.periodic import PeriodicTask

#: Misrouted lookups bounce between colluders; past this hop count the
#: adversary drops instead of forwarding so a colluder pair cannot turn one
#: lookup into an unbounded message loop.
MISROUTE_HOP_CAP = 64


@dataclass(frozen=True, slots=True)
class AdversaryParams:
    """Knobs of one malicious behavior (validated like ``Network.loss_rate``)."""

    drop: float = 0.0
    misroute: float = 0.0
    spoof_acks: bool = False
    poison_joins: bool = False
    eclipse: bool = False
    spam_period: float = 0.0
    spam_fanout: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "misroute"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        if self.spam_period < 0.0:
            raise ValueError(f"spam_period must be non-negative: {self.spam_period}")
        if self.spam_period > 0.0 and self.spam_fanout < 1:
            raise ValueError(
                f"spam_fanout must be >= 1 when spamming: {self.spam_fanout}")
        if self.spam_fanout < 0:
            raise ValueError(f"spam_fanout must be non-negative: {self.spam_fanout}")

    @property
    def is_noop(self) -> bool:
        """True when every knob is at its harmless default."""
        return not (
            self.drop > 0.0
            or self.misroute > 0.0
            or self.spoof_acks
            or self.poison_joins
            or self.eclipse
            or self.spam_period > 0.0
        )


#: Named behavior presets — the vocabulary of ``AdversaryFault`` mixes.
#: Keep names stable: the ``attacks`` experiment's rows are keyed by them.
BEHAVIORS: Dict[str, AdversaryParams] = {
    "drop": AdversaryParams(drop=1.0),
    "spoof": AdversaryParams(drop=1.0, spoof_acks=True),
    "misroute": AdversaryParams(misroute=1.0),
    # Classic table poisoning: advertise into joiners' tables to attract
    # traffic, then blackhole half of it while spoofing acks so the
    # previous hop never reroutes (a silent drop alone is defeated by the
    # per-hop-ack defence).
    "poison": AdversaryParams(poison_joins=True, drop=0.5, spoof_acks=True),
    "eclipse": AdversaryParams(eclipse=True, poison_joins=True, spoof_acks=True),
    "spam": AdversaryParams(spam_period=2.0, spam_fanout=4),
}


class ActiveAdversary:
    """One compromised node's installed behavior overlay.

    ``counters`` is shared across all overlays of a run (it lives on the
    :class:`~repro.faults.state.FaultState`), so experiments read one
    aggregated attack-activity dict.
    """

    __slots__ = ("node", "behavior", "params", "colluders", "_rng",
                 "counters", "_spam_task", "installed")

    def __init__(
        self,
        node,
        behavior: str,
        params: AdversaryParams,
        colluders: List[NodeDescriptor],
        rng: random.Random,
        counters: Dict[str, int],
    ) -> None:
        self.node = node
        self.behavior = behavior
        self.params = params
        #: co-conspirators advertised as next hops / routing entries
        self.colluders = [d for d in colluders if d.id != node.id]
        self._rng = rng
        self.counters = counters
        self._spam_task: Optional[PeriodicTask] = None
        self.installed = False

    # ------------------------------------------------------------------
    # Lifecycle (driven by FaultState.set_adversary / clear_adversaries)
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self.installed or self.node.crashed:
            return
        self.installed = True
        self.node.adversary = self
        if self.params.spam_period > 0.0:
            # Stagger first firings so a batch of spammers installed at the
            # same instant does not fire in lockstep.
            self._spam_task = PeriodicTask(
                self.node.sim,
                self.params.spam_period,
                self._spam_tick,
                start_delay=self._rng.uniform(0.0, self.params.spam_period),
            )

    def uninstall(self) -> None:
        if not self.installed:
            return
        self.installed = False
        if self.node.adversary is self:
            self.node.adversary = None
        if self._spam_task is not None:
            self._spam_task.stop()
            self._spam_task = None

    # ------------------------------------------------------------------
    # Interception (called from MSPastryNode._on_message)
    # ------------------------------------------------------------------
    def intercept(self, src_addr: int, msg) -> bool:
        """Handle ``msg`` maliciously; True consumes it (handler skipped)."""
        cls = msg.__class__
        if cls is m.Lookup:
            return self._intercept_lookup(msg)
        if cls is m.JoinRequest:
            return self._intercept_join(msg)
        return False

    def _intercept_lookup(self, msg) -> bool:
        params = self.params
        if params.misroute > 0.0 and self._rng.random() < params.misroute:
            if msg.hops >= MISROUTE_HOP_CAP:
                self._maybe_spoof_ack(msg)
                self.counters["lookups_dropped"] += 1
                return True
            target = self._misroute_target()
            if target is not None:
                self._maybe_spoof_ack(msg)
                msg.hops += 1
                self.node.send(target, msg)
                self.counters["lookups_misrouted"] += 1
                return True
            # nowhere to divert to: fall through to the drop decision
        if params.drop > 0.0 and self._rng.random() < params.drop:
            self._maybe_spoof_ack(msg)
            self.counters["lookups_dropped"] += 1
            return True
        return False

    def _misroute_target(self) -> Optional[NodeDescriptor]:
        colluders = self.colluders
        if colluders:
            return colluders[self._rng.randrange(len(colluders))]
        members = self.node.routing_state_members()
        if not members:
            return None
        return members[self._rng.randrange(len(members))]

    def _maybe_spoof_ack(self, msg) -> None:
        """Claim delivery to the previous hop so it never reroutes."""
        node = self.node
        if (
            self.params.spoof_acks
            and msg.wants_acks
            and node.config.per_hop_acks
            and msg.msg_id
            and msg.sender is not None
        ):
            node.send(msg.sender, m.Ack(msg_id=msg.msg_id))
            self.counters["acks_spoofed"] += 1

    def _intercept_join(self, msg) -> bool:
        node = self.node
        if msg.joiner is None or msg.joiner.id == node.id:
            return False  # no joiner on the wire, or our own request back
        params = self.params
        if params.eclipse:
            # Capture the join outright: ack the previous hop (claiming
            # progress, so it never reroutes around us) and answer as the
            # root with colluder-only state — the joiner's world view is
            # seeded entirely with conspirators.
            if node.config.per_hop_acks and msg.msg_id and msg.sender is not None:
                node.send(msg.sender, m.Ack(msg_id=msg.msg_id))
                self.counters["acks_spoofed"] += 1
            state = self.colluders + [node.descriptor]
            node.send(
                msg.joiner,
                m.JoinReply(rows={0: list(state)}, leaf_set=list(state)),
            )
            self.counters["joins_captured"] += 1
            return True
        if params.poison_joins:
            # Table poisoning: append self and colluders to the rows the
            # request accumulates, then let honest handling continue — the
            # joiner installs the poisoned entries along with the real ones.
            msg.rows.setdefault(0, []).extend(self.colluders + [node.descriptor])
            self.counters["joins_poisoned"] += 1
        return False

    # ------------------------------------------------------------------
    # Probe spam
    # ------------------------------------------------------------------
    def _spam_tick(self) -> None:
        node = self.node
        if node.crashed or not self.installed:
            return
        targets = node.routing_state_members()
        if not targets:
            return
        fanout = min(self.params.spam_fanout, len(targets))
        for desc in self._rng.sample(targets, fanout):
            node.send(desc, m.RtProbe())
            self.counters["spam_sent"] += 1
