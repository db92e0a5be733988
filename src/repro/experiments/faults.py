"""Adversarial fault scenarios: partitions, bursty loss, gray failures.

Beyond the paper's uniform-loss sweep (Fig 6), these scenarios stress the
regimes where consistent-routing guarantees are actually earned:

* **partition/heal** — half the population is cut away mid-run, then the
  cut heals; the runtime invariant checker (ring closure, leaf-set
  mutuality, no dead routing state) tracks the damage and reports how long
  the ring takes to re-merge,
* **burst-loss sweep** — per-link Gilbert–Elliott bursty loss compared
  against uniform loss *at equal average loss rates*: equal averages, very
  different dependability,
* **gray-failure mix** — a slice of the population goes slow, lossy on
  the way out, or fully receive-only ("stuck") for an interval, then
  recovers; the overlay must expel the liars and readmit them afterwards.

Every scenario reports incorrect-delivery rate, lookup loss, the peak and
final standing-violation counts, and post-fault reconvergence time.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.reporting import percent, reconvergence, render
from repro.experiments.scenarios import (INVARIANT_PERIOD, Scenario, measure, read,
                                         reconvergence_after, whole_run_bursts)
from repro.faults import Fault, FaultEvent, FaultSchedule, GrayFailure, GrayFailures, Partition

BURST_RATES = (0.01, 0.03, 0.05)
GRAY_MIX = (
    GrayFailures(fraction=0.10, profile=GrayFailure.slow(factor=5.0)),
    GrayFailures(fraction=0.05, profile=GrayFailure.lossy(0.5)),
    GrayFailures(fraction=0.05, profile=GrayFailure.stuck()),
)
FIELDS = ("loss", "incorrect", "rdp_median", "control", "lookups",
          "max_violations", "standing_violations", "fault_drops")
WINDOW_COLUMNS = (("lookup loss", "loss"), ("incorrect", "incorrect"),
                  ("RDP-med", "rdp_median"), ("max viol", "max_violations"),
                  ("standing", "standing_violations"),
                  ("reconvergence", reconvergence))
BURST_COLUMNS = (("lookup loss", "loss"), ("incorrect", "incorrect"),
                 ("RDP-med", "rdp_median"), ("control", "control"),
                 ("standing", "standing_violations"))


def _window(faults: Sequence[Fault], start: float, length: float, seed: int,
            trace_scale: float, duration: float) -> Dict:
    """One run with ``faults`` struck over [start, start + length), with the
    reconvergence time after the window."""
    schedule = FaultSchedule(
        [FaultEvent(fault, start=start, duration=length) for fault in faults])
    result = Scenario(seed=seed, fault_schedule=schedule,
                      invariant_period=INVARIANT_PERIOD).run_gnutella(
                          scale=trace_scale, duration=duration)
    return read(result, FIELDS + (reconvergence_after(start + length),))


def run_partition_heal(
    seed: int = 42,
    trace_scale: float = 0.04,
    duration: float = 2400.0,
    start: float = 600.0,
    length: float = 300.0,
    fraction: float = 0.5,
) -> Dict:
    return _window([Partition(fraction=fraction)], start, length, seed,
                   trace_scale, duration)


def run_burst_sweep(
    seed: int = 42,
    trace_scale: float = 0.04,
    duration: float = 2400.0,
    rates=BURST_RATES,
) -> Dict:
    """Uniform vs Gilbert–Elliott loss at equal average rates."""
    cells = []
    for rate in rates:
        cells += [
            (f"uniform-{percent(rate)}",
             dict(loss_rate=rate, invariant_period=INVARIANT_PERIOD)),
            (f"bursty-{percent(rate)}",
             dict(fault_schedule=whole_run_bursts(rate, duration),
                  invariant_period=INVARIANT_PERIOD)),
        ]
    return measure(cells, FIELDS, seed, trace_scale, duration)


def run_gray_mix(
    seed: int = 42,
    trace_scale: float = 0.04,
    duration: float = 2400.0,
    start: float = 600.0,
    length: float = 300.0,
) -> Dict:
    """Slow + out-lossy + stuck nodes strike together, then recover."""
    return _window(GRAY_MIX, start, length, seed, trace_scale, duration)


def run(
    seed: int = 42,
    trace_scale: float = 0.04,
    duration: float = 2400.0,
    burst_rates=BURST_RATES,
) -> Dict:
    return {
        "partition": run_partition_heal(seed, trace_scale, duration),
        "burst": run_burst_sweep(seed, trace_scale, duration, rates=burst_rates),
        "gray": run_gray_mix(seed, trace_scale, duration),
    }


def format_report(result: Dict) -> str:
    return render("Fault injection — partitions, bursty loss, gray failures", [
        ("\n1. partition/heal (half the population cut, then healed)", None,
         WINDOW_COLUMNS, {"": result["partition"]}),
        ("\n2. bursty vs uniform loss at equal average rates", "channel",
         BURST_COLUMNS, result["burst"]),
        ("\n3. gray-failure mix (10% slow, 5% out-lossy, 5% stuck)", None,
         WINDOW_COLUMNS, {"": result["gray"]}),
    ])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
