"""§5.3 "Active probing and per-hop acks": the dependability ablation.

Paper results (Gnutella trace):

* neither probing nor acks: 32% of lookups never delivered,
* per-hop acks only: loss 2.8e-5, but RDP +17% at 0.01 lookups/s/node and
  +61% at 0.001 lookups/s/node (fault detection rides on traffic),
* probing only: loss can't go below ~1e-3-1e-2 (probing period floor),
* both: loss 1.6e-5 with low RDP.

Expected shape here: a large loss rate with both mechanisms off, small with
acks, and the RDP gap between acks-only and both growing as the lookup rate
falls.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import render
from repro.experiments.scenarios import measure
from repro.pastry.config import PastryConfig

VARIANTS = {
    "neither": dict(per_hop_acks=False, active_rt_probing=False),
    "acks-only": dict(per_hop_acks=True, active_rt_probing=False),
    "probing-only": dict(per_hop_acks=False, active_rt_probing=True),
    "both": dict(per_hop_acks=True, active_rt_probing=True),
}
COLUMNS = (("loss", "loss"), ("incorrect", "incorrect"), ("RDP", "rdp"),
           ("control", "control"))
LOW_RATE_COLUMNS = (("RDP", "rdp"), ("loss", "loss"))


def run(
    seed: int = 42,
    trace_scale: float = 0.05,
    duration: float = 2400.0,
    low_lookup_rate: float = 0.001,
) -> Dict:
    def sweep(names, columns, **scenario):
        cells = [(name, dict(scenario, config=PastryConfig(**VARIANTS[name])))
                 for name in names]
        return measure(cells, [f for _, f in columns], seed, trace_scale, duration)
    return {
        "rows": sweep(VARIANTS, COLUMNS),
        # RDP sensitivity to application traffic: acks-only vs both.
        "low_rate": sweep(("acks-only", "both"), LOW_RATE_COLUMNS,
                          lookup_rate=low_lookup_rate),
    }


def _penalty(rows: Dict) -> float:
    both, acks = rows["both"]["rdp"], rows["acks-only"]["rdp"]
    return 100 * (acks - both) / both


def format_report(result: Dict) -> str:
    parts = [render(
        "Ablation — active probing and per-hop acks (0.01 lookups/s/node)",
        [(None, "variant", COLUMNS, result["rows"]),
         ("\nLow application traffic (0.001 lookups/s/node):", "variant",
          LOW_RATE_COLUMNS, result["low_rate"])])]
    if result["rows"]["both"]["rdp"] > 0:
        parts.append(f"\nacks-only RDP penalty vs both: "
                     f"{_penalty(result['rows']):+.1f}% (paper: +17%)")
    if result["low_rate"]["both"]["rdp"] > 0:
        parts.append(f"acks-only RDP penalty at low traffic: "
                     f"{_penalty(result['low_rate']):+.1f}% (paper: +61%)")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
