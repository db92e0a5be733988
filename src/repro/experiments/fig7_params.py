"""Figure 7: the effect of the leaf-set size l and digit size b.

Paper shape: control traffic grows only ~7% from l=16 to l=32 (heartbeats go
to a single neighbour, so leaf-set maintenance cost is size-independent);
RDP falls slightly with larger l (more last-hop shortcuts); RDP rises
steeply as b decreases (more hops: expected hops = (2^b-1)/2^b log_{2^b} N)
while control traffic barely falls.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import render
from repro.experiments.resultio import num_key
from repro.experiments.scenarios import measure
from repro.pastry.config import PastryConfig

LEAF_SIZES = (8, 16, 32, 64)
B_VALUES = (1, 2, 3, 4)
L_COLUMNS = (("control", "control"), ("heartbeats", "heartbeat_traffic"),
             ("RDP", "rdp"), ("hops", "hops"), ("loss", "loss"))
B_COLUMNS = (("control", "control"), ("RDP", "rdp"), ("hops", "hops"),
             ("loss", "loss"))


def run(
    seed: int = 42,
    trace_scale: float = 0.05,
    duration: float = 1800.0,
    leaf_sizes=LEAF_SIZES,
    b_values=B_VALUES,
) -> Dict:
    l_cells = [(num_key(l), dict(config=PastryConfig(leaf_set_size=l)))
               for l in leaf_sizes]
    b_cells = [(num_key(b), dict(config=PastryConfig(b=b))) for b in b_values]
    return {
        "l": measure(l_cells, [f for _, f in L_COLUMNS], seed, trace_scale, duration),
        "b": measure(b_cells, [f for _, f in B_COLUMNS], seed, trace_scale, duration),
    }


def format_report(result: Dict) -> str:
    return render(
        "Figure 7 — leaf-set size sweep\n"
        "(heartbeats column is flat in l: a single left-neighbour heartbeat\n"
        " regardless of leaf-set size, §4.1)",
        [(None, "l", L_COLUMNS, result["l"]),
         ("\nFigure 7 — digit size (b) sweep", "b", B_COLUMNS, result["b"])])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
