"""Ablations of MSPastry's individual design choices (DESIGN.md §5).

These are not paper figures; they isolate the techniques of §4 one at a
time, each against the natural baseline the paper argues against:

* single left-neighbour heartbeat vs heart-beating the whole leaf set,
* self-tuned routing-table probing vs fixed periods, across failure rates,
* probe suppression on vs off, across application traffic levels,
* symmetric distance probes on vs off (probe-count halving, §4.2),
* aggressive vs TCP-conservative retransmission timers,
* delivery deferral on vs off under link loss (consistency mechanism),
* deferral/acks under bursty vs uniform loss at equal average loss rate.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.reporting import render
from repro.experiments.scenarios import measure, whole_run_bursts
from repro.pastry.config import PastryConfig

#: (result key, heading, table columns) per ablation, in run order
SECTIONS = (
    ("heartbeats", "1. heartbeat strategy",
     (("heartbeat msg/s/node", "heartbeat_rate"), ("control", "control"),
      ("loss", "loss"))),
    ("tuning", "2. probing-period tuning",
     (("rt-probe rate", "rt_probe_rate"), ("control", "control"), ("RDP", "rdp"),
      ("loss", "loss"))),
    ("suppression", "3. probe suppression (lookup-rate/state)",
     (("probe+hb rate", "probe_rate"), ("control", "control"))),
    ("symmetry", "4. distance-probe symmetry",
     (("distance msg/s/node", "distance_rate"), ("control", "control"))),
    ("rto", "5. retransmission timers", (("RDP", "rdp"), ("loss", "loss"))),
    ("deferral", "6. delivery deferral at 3% link loss",
     (("incorrect", "incorrect"), ("RDP", "rdp"), ("loss", "loss"))),
    ("burstiness", "7. bursty vs uniform loss at equal 3% average (channel/variant)",
     (("incorrect", "incorrect"), ("loss", "loss"), ("RDP", "rdp"))),
)
ON_OFF = (("on", True), ("off", False))


def _config(**overrides) -> Dict:
    return {"config": PastryConfig(**overrides)}


def _cells(duration: float) -> Dict[str, List]:
    """Each ablation's ``(variant, Scenario kwargs)`` cells, keyed as in
    ``SECTIONS``."""
    # 7. Burstiness: the same mechanisms at the same *average* loss rate,
    # but concentrated in Gilbert–Elliott bursts.  Bursts defeat one-shot
    # recovery (a retransmission inside a burst is lost again), so this is
    # where deferral and per-hop acks earn (or lose) their keep.
    channels = (("uniform", dict(loss_rate=0.03)),
                ("bursty", dict(fault_schedule=whole_run_bursts(0.03, duration))))
    variants = (("full", {}), ("no-defer", dict(defer_delivery_on_suspect=False)),
                ("no-acks", dict(per_hop_acks=False)))
    return {
        "heartbeats": [("left-neighbour", _config(heartbeat_all_leafset=False)),
                       ("all-members", _config(heartbeat_all_leafset=True))],
        "tuning": [("self-tuned", _config(self_tuning=True)),
                   ("fixed-30s", _config(self_tuning=False, rt_probe_period=30.0)),
                   ("fixed-600s", _config(self_tuning=False, rt_probe_period=600.0))],
        "suppression": [(f"{rate}/{name}", dict(lookup_rate=rate,
                                                **_config(probe_suppression=on)))
                        for rate in (0.01, 0.1) for name, on in ON_OFF],
        "symmetry": [("symmetric", _config(symmetric_distance_probes=True)),
                     ("independent", _config(symmetric_distance_probes=False))],
        "rto": [("aggressive", _config(rto_variance_weight=2.0, rto_min=0.05,
                                       rto_initial=0.5)),
                ("tcp-conservative", _config(rto_variance_weight=4.0, rto_min=1.0,
                                             rto_initial=3.0))],
        "deferral": [(name, dict(loss_rate=0.03,
                                 **_config(defer_delivery_on_suspect=on)))
                     for name, on in ON_OFF],
        "burstiness": [(f"{channel}/{variant}", dict(scenario, **_config(**config)))
                       for channel, scenario in channels
                       for variant, config in variants],
    }


def run(seed: int = 42, trace_scale: float = 0.04,
        duration: float = 1800.0) -> Dict:
    cells = _cells(duration)
    return {key: measure(cells[key], [f for _, f in columns], seed, trace_scale,
                         duration)
            for key, _, columns in SECTIONS}


def format_report(result: Dict) -> str:
    return render("Design-choice ablations (DESIGN.md §5)",
                  [(f"\n{heading}", "variant", columns, result[key])
                   for key, heading, columns in SECTIONS])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
