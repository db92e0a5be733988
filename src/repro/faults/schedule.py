"""Declarative, timed fault scenarios driven by the simulator heap.

A :class:`FaultSchedule` is a list of ``FaultEvent(fault, start, duration)``
entries.  ``install()`` attaches a :class:`FaultState` to the network (if
none is attached yet) and schedules each fault's ``apply``/``revert`` at its
start/stop instants.  Fault objects are immutable and reusable across runs;
the price is clear-all revert semantics per fault kind — two overlapping
faults of the same kind end together when the first one reverts.
:meth:`FaultSchedule.validate` (run at construction) therefore rejects
same-kind events whose windows overlap with *different* end times; equal-end
overlaps are allowed and well-defined (the gray-failure mix composes three
profiles over one shared window this way).

Which nodes a population-level fault hits is decided at *apply* time from
the addresses registered at that instant, drawn from the schedule's own
named RNG stream — deterministic for a given seed, yet correct under churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.faults.models import GEParams, JitterParams
from repro.faults.state import FaultState, GrayFailure
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class _Context:
    state: FaultState
    network: object
    rng: random.Random

    def live_addresses(self) -> List[int]:
        """Currently registered addresses, sorted for determinism."""
        return sorted(self.network.addresses())


class Fault:
    """Base class: a fault knows how to apply and revert itself."""

    def apply(self, ctx: _Context) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def revert(self, ctx: _Context) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class Partition(Fault):
    """Cut the population into two disjoint groups.

    ``fraction`` is the share of nodes moved away from group 0 into group
    1; the default is a clean half/half split.  Healing clears the cut;
    re-merging the ring is the protocol's job, and the invariant checker
    measures how long it takes.
    """

    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction out of (0, 1): {self.fraction}")

    def apply(self, ctx: _Context) -> None:
        addrs = ctx.live_addresses()
        moved = round(self.fraction * len(addrs))
        chosen = ctx.rng.sample(addrs, moved) if moved else []
        ctx.state.set_partition({addr: 1 for addr in chosen})

    def revert(self, ctx: _Context) -> None:
        ctx.state.heal_partition()


@dataclass(frozen=True)
class BurstLoss(Fault):
    """Per-link Gilbert–Elliott bursty loss on every link."""

    params: GEParams = field(default_factory=GEParams)

    def apply(self, ctx: _Context) -> None:
        ctx.state.set_burst_loss(self.params)

    def revert(self, ctx: _Context) -> None:
        ctx.state.clear_burst_loss()


@dataclass(frozen=True)
class LinkJitter(Fault):
    """Delay jitter / latency spikes on every link."""

    params: JitterParams = field(default_factory=JitterParams)

    def apply(self, ctx: _Context) -> None:
        ctx.state.set_jitter(self.params)

    def revert(self, ctx: _Context) -> None:
        ctx.state.clear_jitter()


@dataclass(frozen=True)
class GrayFailures(Fault):
    """Turn a random ``fraction`` of the registered nodes gray."""

    fraction: float = 0.1
    profile: GrayFailure = field(default_factory=GrayFailure.stuck)

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction out of (0, 1]: {self.fraction}")

    def apply(self, ctx: _Context) -> None:
        addrs = ctx.live_addresses()
        count = max(1, round(self.fraction * len(addrs))) if addrs else 0
        for addr in ctx.rng.sample(addrs, count):
            ctx.state.set_gray(addr, self.profile)

    def revert(self, ctx: _Context) -> None:
        ctx.state.clear_gray()


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault: active on ``[start, start + duration)``."""

    fault: Fault
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("start must be >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


class FaultSchedule:
    """An immutable scenario: which faults strike when."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.end))
        )
        self.validate()

    def validate(self) -> None:
        """Reject same-kind events whose windows overlap with different ends.

        Reverts are clear-all per fault kind, so when two same-kind windows
        overlap the earlier revert silently ends both — a real footgun for
        generated schedules.  Overlapping events that *end together* are
        fine (both reverts fire at the shared instant; the first clears,
        the second is a no-op) and are how composite faults are written.
        """
        latest: dict = {}  # fault kind -> (furthest end seen, its event)
        for event in self.events:  # sorted by (start, end)
            kind = type(event.fault)
            seen = latest.get(kind)
            if seen is not None:
                end, prev = seen
                if event.start < end and event.end != end:
                    raise ValueError(
                        f"overlapping {kind.__name__} faults with different "
                        f"ends: [{prev.start:g}, {prev.end:g}) and "
                        f"[{event.start:g}, {event.end:g}) — clear-all "
                        f"revert semantics would silently end both at "
                        f"t={min(end, event.end):g}"
                    )
                if event.end > end:
                    latest[kind] = (event.end, event)
            else:
                latest[kind] = (event.end, event)

    def install(
        self,
        sim: Simulator,
        network,
        rng: random.Random,
        offset: float = 0.0,
    ) -> FaultState:
        """Attach a fault table to ``network`` and arm all events.

        Event times are shifted by ``offset`` seconds from the install
        instant ``sim.now`` (the runner installs at 0 and passes the warm-up
        length, so schedules are written in measured time).  Returns the
        :class:`FaultState` for counter inspection.
        """
        state = network.faults
        if state is None:
            state = FaultState(sim, rng)
            network.faults = state
        ctx = _Context(state=state, network=network, rng=rng)
        for event in self.events:
            sim.schedule(offset + event.start, event.fault.apply, ctx)
            sim.schedule(offset + event.end, event.fault.revert, ctx)
        return state

    def describe(self) -> str:
        lines = []
        for event in self.events:
            lines.append(
                f"t={event.start:.0f}s +{event.duration:.0f}s  "
                f"{type(event.fault).__name__}"
            )
        return "\n".join(lines)
