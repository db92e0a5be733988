"""Regenerate the golden same-seed traces (``python tests/golden/generate.py``).

The goldens pin the *byte-identical* canonical-JSON output of three
experiments at fixed seeds and reduced-but-fixed parameters.  They were
captured before the simulation-core hot-path refactor and enforce its
equivalence contract: any engine/transport/topology/node change that
alters event ordering, RNG draws or float arithmetic shows up as a diff
here.  Regenerating them is only legitimate for *intentional* behaviour
changes — say so in the commit message.

Parameters live in GOLDEN_RUNS and are imported by
``tests/test_golden_traces.py`` so the test and the generator can never
drift apart.  ``wire_ids.json`` in this directory is not generated: it is
the append-only wire type-id pin ``tests/test_runtime_wire.py`` reads, and
new ids are appended to it by hand.
"""

from __future__ import annotations

import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: name -> (experiment module name, run() kwargs)
GOLDEN_RUNS = {
    "fig3": ("fig3", {"seed": 42, "scale": 0.1, "microsoft_scale": 0.01}),
    "fig6": ("fig6", {"seed": 17, "trace_scale": 0.02, "duration": 600.0,
                      "loss_rates": (0.0, 0.05)}),
    "faults": ("faults", {"seed": 17, "trace_scale": 0.02,
                          "duration": 900.0, "start": 300.0,
                          "length": 120.0, "fraction": 0.5}),
}


def compute(name: str) -> str:
    """Run one golden scenario and return its canonical JSON text."""
    from repro.experiments import faults, fig3_failure_rates, fig6_loss
    from repro.experiments.resultio import dumps_canonical, to_jsonable

    experiment, kwargs = GOLDEN_RUNS[name]
    if experiment == "fig3":
        result = fig3_failure_rates.run(**kwargs)
    elif experiment == "fig6":
        result = fig6_loss.run(**kwargs)
    elif experiment == "faults":
        result = faults.run_partition_heal(**kwargs)
    else:  # pragma: no cover - registry/typo guard
        raise KeyError(experiment)
    return dumps_canonical(to_jsonable(result)) + "\n"


def main() -> int:
    for name in GOLDEN_RUNS:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(compute(name))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
