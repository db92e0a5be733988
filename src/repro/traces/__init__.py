"""Churn traces: node arrival/failure event streams driving fault injection.

The paper injects faults from three real-world traces (Gnutella, OverNet,
Microsoft corporate) and from artificial Poisson traces.  The real traces are
not redistributable, so we provide statistical models matched to every figure
the paper reports about them (session-time mean/median, active-population
envelope, diurnal/weekly failure-rate patterns — paper Figure 3).
"""

from repro.traces.analysis import active_count_series, failure_rate_series
from repro.traces.events import ChurnTrace, TraceEvent
from repro.traces.realworld import (
    GNUTELLA,
    MICROSOFT,
    OVERNET,
    TraceModel,
    generate_real_world_trace,
)
from repro.traces.squirrel import SquirrelTrace, generate_squirrel_trace
from repro.traces.synthetic import generate_poisson_trace

__all__ = [
    "ChurnTrace",
    "GNUTELLA",
    "MICROSOFT",
    "OVERNET",
    "SquirrelTrace",
    "TraceEvent",
    "TraceModel",
    "active_count_series",
    "failure_rate_series",
    "generate_poisson_trace",
    "generate_real_world_trace",
    "generate_squirrel_trace",
]
