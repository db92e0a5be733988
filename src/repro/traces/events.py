"""Trace event model: time-ordered node arrivals and failures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

ARRIVAL = "arrival"
FAILURE = "failure"


@dataclass(frozen=True, order=True)
class TraceEvent:
    """A single churn event.

    ``node`` is a trace-local logical node identifier; a node that leaves and
    later returns appears as a fresh identifier (the overlay treats a rejoin
    as a new join anyway, since all protocol state is lost on a crash).
    """

    time: float
    node: int = field(compare=False)
    kind: str = field(compare=False)  # ARRIVAL or FAILURE


@dataclass
class ChurnTrace:
    """An immutable, time-sorted churn event stream plus metadata."""

    name: str
    events: List[TraceEvent]
    duration: float

    def __post_init__(self) -> None:
        self.events = sorted(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def initial_nodes(self) -> List[int]:
        """Nodes whose arrival is at time zero (the bootstrap population)."""
        return [e.node for e in self.events if e.kind == ARRIVAL and e.time == 0.0]

    def session_times(self) -> List[float]:
        """Completed session durations (arrival→failure pairs)."""
        arrival_at = {}
        sessions = []
        for event in self.events:
            if event.kind == ARRIVAL:
                arrival_at[event.node] = event.time
            else:
                start = arrival_at.pop(event.node, None)
                if start is not None:
                    sessions.append(event.time - start)
        return sessions

    def truncated(self, duration: float) -> "ChurnTrace":
        """A copy of the trace cut off at ``duration`` seconds."""
        return ChurnTrace(
            name=self.name,
            events=[e for e in self.events if e.time <= duration],
            duration=min(duration, self.duration),
        )
