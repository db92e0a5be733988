"""Synthetic Squirrel-deployment workload (paper §5.3.1, Figure 8).

The paper validates the simulator against a 6-day log (4 week days plus a
weekend) of the Squirrel web cache running on 52 desktop machines at
Microsoft Research Cambridge: node arrivals, node failures, and page
lookups.  That log is private, so we synthesise a deployment with the same
shape: office desktops that come up in the morning and go down in the
evening on week days (a fraction stay on overnight / over the weekend), and
web requests following a work-hours diurnal profile with Zipf-popular URLs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.traces.events import ARRIVAL, FAILURE, ChurnTrace, TraceEvent

HOUR = 3600.0
DAY = 24 * HOUR
#: the paper's trace (11–17 Dec 2003) started on a Thursday: days 2–3 are
#: the weekend
WEEKEND_DAYS = (2, 3)
#: share of desktops left on overnight and over the weekend
ALWAYS_ON_FRACTION = 0.25
#: Zipf exponent of URL popularity
ZIPF_EXPONENT = 0.8


@dataclass
class SquirrelTrace:
    """Churn events plus timestamped page-lookup requests."""

    churn: ChurnTrace
    #: (time, trace-node-id, url-id) sorted by time
    lookups: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.churn.duration


def _zipf_url(rng: random.Random, n_urls: int) -> int:
    """Sample a URL id with Zipf popularity via inverse-CDF rejection."""
    while True:
        u = rng.random()
        candidate = int(n_urls * u ** (1.0 / (1.0 - ZIPF_EXPONENT)))
        if candidate < n_urls:
            return candidate


def generate_squirrel_trace(
    rng: random.Random,
    n_machines: int = 52,
    n_days: int = 6,
    peak_request_rate: float = 0.02,
    n_urls: int = 2000,
) -> SquirrelTrace:
    """Generate the 6-day deployment trace.

    ``peak_request_rate`` is per-machine requests/second at mid-workday.
    """
    duration = n_days * DAY
    events: List[TraceEvent] = []
    lookups: List[Tuple[float, int, int]] = []
    next_node = 0

    for machine in range(n_machines):
        always_on = rng.random() < ALWAYS_ON_FRACTION
        online_since = None  # (trace node id, arrival time)

        def go_up(t: float):
            nonlocal next_node, online_since
            if online_since is None:
                events.append(TraceEvent(t, next_node, ARRIVAL))
                online_since = (next_node, t)
                next_node += 1

        def go_down(t: float):
            nonlocal online_since
            if online_since is not None and t <= duration:
                events.append(TraceEvent(t, online_since[0], FAILURE))
                online_since = None

        if always_on:
            go_up(0.0)
        for day in range(n_days):
            weekend = (day % 7) in WEEKEND_DAYS
            if weekend and not always_on:
                continue
            day_start = day * DAY
            if not always_on:
                # Morning boot between 7:30 and 10:00.
                go_up(day_start + rng.uniform(7.5, 10.0) * HOUR)
                # ~20% of machines left on overnight.
                if rng.random() < 0.8:
                    go_down(day_start + rng.uniform(16.5, 20.0) * HOUR)
            # Occasional mid-day crash followed by a reboot.
            if online_since is not None and rng.random() < 0.08:
                t = day_start + rng.uniform(11.0, 15.0) * HOUR
                go_down(t)
                go_up(t + rng.uniform(120.0, 900.0))

    # Reconstruct online intervals per trace node id, then generate requests.
    arrival_at = {}
    node_intervals: List[Tuple[int, float, float]] = []
    for event in sorted(events):
        if event.kind == ARRIVAL:
            arrival_at[event.node] = event.time
        else:
            start = arrival_at.pop(event.node, None)
            if start is not None:
                node_intervals.append((event.node, start, event.time))
    for node, start in arrival_at.items():
        node_intervals.append((node, start, duration))

    for node, start, end in node_intervals:
        t = start
        while True:
            t += rng.expovariate(peak_request_rate)
            if t >= end:
                break
            hour_of_day = (t % DAY) / HOUR
            day = int(t // DAY)
            weekend = (day % 7) in WEEKEND_DAYS
            if rng.random() < _activity(hour_of_day, weekend):
                lookups.append((t, node, _zipf_url(rng, n_urls)))

    lookups.sort()
    churn = ChurnTrace(name="squirrel", events=events, duration=duration)
    return SquirrelTrace(churn=churn, lookups=lookups)


def _activity(hour_of_day: float, weekend: bool) -> float:
    """Relative browsing intensity (thinning probability) by time of day."""
    if weekend:
        return 0.05
    if 9.0 <= hour_of_day <= 17.5:
        return 1.0
    if 7.5 <= hour_of_day < 9.0 or 17.5 < hour_of_day <= 20.0:
        return 0.4
    return 0.05
