"""Statistical models of the paper's three real-world churn traces.

The original traces (Saroiu et al.'s Gnutella probe study, Bhagwan et al.'s
OverNet study, Bolosky et al.'s Microsoft-corporate availability study) are
not redistributable.  The paper reports their defining statistics, which we
match:

===========  ========  ============  ==============  ==================
trace        duration  mean session  median session  active population
===========  ========  ============  ==============  ==================
Gnutella     60 h      2.3 h         1 h             1,300 – 2,700
OverNet      7 days    134 min       79 min          260 – 650
Microsoft    37 days   37.7 h        (not reported)  14,700 – 15,600
===========  ========  ============  ==============  ==================

Session times are lognormal, the unique two-parameter positive distribution
fixed by a (mean, median) pair; heavy-tailed session times are also what the
measurement studies report.  Arrival rates are modulated with daily and
weekly sinusoids so the failure-rate series shows the patterns of the
paper's Figure 3, with amplitudes chosen to reproduce the reported active
population envelopes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.traces.events import ARRIVAL, FAILURE, ChurnTrace, TraceEvent

HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY


@dataclass(frozen=True)
class TraceModel:
    """Parameters of a real-world trace reconstruction."""

    name: str
    duration: float  # seconds
    mean_session: float  # seconds
    median_session: float  # seconds
    avg_active: int
    diurnal_amplitude: float  # relative arrival-rate swing, 24 h period
    weekly_amplitude: float  # relative arrival-rate swing, 7 day period
    analysis_window: float  # Fig 3 failure-rate averaging window

    @property
    def sigma(self) -> float:
        """Lognormal shape parameter from the mean/median ratio."""
        ratio = self.mean_session / self.median_session
        return math.sqrt(2.0 * math.log(ratio))

    @property
    def mu(self) -> float:
        """Lognormal scale parameter (log of the median)."""
        return math.log(self.median_session)


GNUTELLA = TraceModel(
    name="gnutella",
    duration=60 * HOUR,
    mean_session=2.3 * HOUR,
    median_session=1.0 * HOUR,
    avg_active=2000,
    diurnal_amplitude=0.35,
    weekly_amplitude=0.0,
    analysis_window=600.0,
)

OVERNET = TraceModel(
    name="overnet",
    duration=7 * DAY,
    mean_session=134 * 60.0,
    median_session=79 * 60.0,
    avg_active=455,
    diurnal_amplitude=0.35,
    weekly_amplitude=0.15,
    analysis_window=600.0,
)

# The Microsoft study does not report a median; a 30 h median against the
# 37.7 h mean gives a mildly skewed distribution consistent with corporate
# desktops that stay up for days.
MICROSOFT = TraceModel(
    name="microsoft",
    duration=37 * DAY,
    mean_session=37.7 * HOUR,
    median_session=30.0 * HOUR,
    avg_active=15150,
    diurnal_amplitude=0.05,
    weekly_amplitude=0.04,
    analysis_window=HOUR,
)

#: the paper's three traces by name, in the order the figures list them
TRACE_MODELS = {"gnutella": GNUTELLA, "overnet": OVERNET, "microsoft": MICROSOFT}


def _rate_modulation(model: TraceModel, t: float) -> float:
    """Relative arrival-rate multiplier at time ``t`` (mean 1 over a week)."""
    value = 1.0
    if model.diurnal_amplitude:
        value += model.diurnal_amplitude * math.sin(2 * math.pi * t / DAY)
    if model.weekly_amplitude:
        value += model.weekly_amplitude * math.sin(2 * math.pi * t / WEEK)
    return max(0.05, value)


def generate_real_world_trace(
    rng: random.Random,
    model: TraceModel,
    scale: float = 1.0,
    duration: float = None,
) -> ChurnTrace:
    """Generate a churn trace matching ``model``'s published statistics.

    ``scale`` multiplies the node population (0.1 → one tenth of the nodes),
    keeping session times and temporal patterns unchanged; ``duration``
    optionally truncates the trace.  Both exist because the full-scale traces
    are far too slow for a pure-Python simulation of the complete overlay.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    total_duration = model.duration if duration is None else min(duration, model.duration)
    n_avg = max(2, round(model.avg_active * scale))
    mu, sigma = model.mu, model.sigma

    events = []
    next_node = 0

    def add_session(start: float) -> None:
        nonlocal next_node
        node = next_node
        next_node += 1
        session = rng.lognormvariate(mu, sigma)
        events.append(TraceEvent(start, node, ARRIVAL))
        if start + session <= total_duration:
            events.append(TraceEvent(start + session, node, FAILURE))

    for _ in range(n_avg):
        add_session(0.0)

    # Thinned non-homogeneous Poisson arrivals: candidate events at the peak
    # rate, accepted with probability modulation(t)/peak.
    base_rate = n_avg / model.mean_session
    peak = 1.0 + model.diurnal_amplitude + model.weekly_amplitude
    t = 0.0
    while True:
        t += rng.expovariate(base_rate * peak)
        if t >= total_duration:
            break
        if rng.random() < _rate_modulation(model, t) / peak:
            add_session(t)

    return ChurnTrace(name=model.name, events=events, duration=total_duration)
