"""Beyond the paper: Byzantine attacks — coverage table per attack type.

The paper's dependability story covers benign failures; this experiment
measures MSPastry under *malicious* members (``repro.adversary``): for each
attack type x attacker fraction, a window of the Gnutella churn run is
fought with compromised nodes, then the attackers are revoked.  Reported
per cell: routing consistency (fraction of settled lookups reaching the
true oracle owner), lookup loss, incorrect deliveries, the peak and final
invariant-violation counts, reconvergence time after revocation, and the
attack-activity counters (lookups dropped/misrouted, acks spoofed, joins
poisoned/captured, probes spammed).

The baseline row runs the same trace with no attackers, so every
degradation in the table is attributable to the attack.
"""

from __future__ import annotations

from typing import Dict

from repro.adversary import AdversaryFault
from repro.experiments.reporting import reconvergence, render
from repro.experiments.resultio import num_key
from repro.experiments.scenarios import INVARIANT_PERIOD, measure, reconvergence_after
from repro.faults import FaultEvent, FaultSchedule

#: attack types: BEHAVIORS preset names (see repro.adversary.behaviors)
ATTACKS = ("poison", "eclipse", "misroute", "spoof", "spam")
FRACTIONS = (0.1, 0.25)
FIELDS = ("consistency", "loss", "incorrect", "lookups", "max_violations",
          "standing_violations")
#: short names of the attack-activity counters
ACTIVITY = {
    "lookups_dropped": "drop",
    "lookups_misrouted": "misroute",
    "acks_spoofed": "spoof",
    "joins_poisoned": "poison",
    "joins_captured": "capture",
    "spam_sent": "spam",
}


def run(
    seed: int = 42,
    trace_scale: float = 0.04,
    duration: float = 2400.0,
    start: float = 600.0,
    length: float = 600.0,
    attacks=ATTACKS,
    fractions=FRACTIONS,
) -> Dict:
    """Attack-coverage grid: attack type x attacker fraction.

    Attackers strike at ``start`` (measured time) for ``length`` seconds,
    then are revoked; reconvergence is measured from the revocation
    instant.
    """
    grid = {"baseline": ("none", 0.0, None)}
    for attack in attacks:
        for fraction in fractions:
            grid[f"{attack}-{num_key(fraction)}"] = (attack, fraction, FaultSchedule([
                FaultEvent(AdversaryFault(fraction=fraction, mix=attack),
                           start=start, duration=length)]))
    cells = [(key, dict(fault_schedule=schedule, invariant_period=INVARIANT_PERIOD))
             for key, (_, _, schedule) in grid.items()]
    columns = FIELDS + (reconvergence_after(start + length), "adversary")
    rows = measure(cells, columns, seed, trace_scale, duration)
    return {"rows": {key: {"attack": attack, "fraction": fraction, **rows[key]}
                     for key, (attack, fraction, _) in grid.items()},
            "start": start, "length": length}


def _activity(row: Dict) -> str:
    counters = row["adversary"]
    if not counters:
        return "-"
    return " ".join(
        f"{ACTIVITY.get(key, key)}:{counters[key]}" for key in sorted(counters)
    )


def format_report(result: Dict) -> str:
    return render(
        "Byzantine attack coverage — routing consistency under compromise\n"
        f"(attack window [{result['start']:.0f}s, "
        f"{result['start'] + result['length']:.0f}s), attackers revoked at "
        f"the end; reconvergence measured from revocation)\n",
        [(None, None, (("attack", "attack"), ("fraction", "fraction"),
                       ("consistency", "consistency"), ("lookup loss", "loss"),
                       ("incorrect", "incorrect"), ("max viol", "max_violations"),
                       ("standing", "standing_violations"),
                       ("reconvergence", reconvergence), ("activity", _activity)),
          result["rows"])])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
