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
new ids are appended to it by hand.  ``wire_frames.json`` pins the bytes
deployed nodes speak: ``compute_wire_frames`` wrote it once, with the
interpretive codec that preceded the compiled plans, and ``main`` does not
call it — a new message type appends its three frames by hand.
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


#: header variants every message type is pinned under
WIRE_FRAME_VARIANTS = ("bare", "sender", "sender+hint")


def wire_frame_instances() -> dict:
    """``"<Type>/<variant>"`` -> message: one fixed instance per wire type
    and header variant.  Field values go by kind and variant, so the three
    variants carry lists of 0, 1 and 32 descriptors, ids 0, > 2^64 and
    2^128 - 1, unsorted row keys and every payload kind."""
    from repro.pastry.nodeid import NodeDescriptor
    from repro.runtime import wire

    max_u128, max_u64 = (1 << 128) - 1, (1 << 64) - 1

    def descs(n: int) -> list:
        return [NodeDescriptor((i * 0x9E3779B97F4A7C15F39CC0605CEDC834 + 1)
                               & max_u128, (0x7F000001 << 16) | (9000 + i))
                for i in range(n)]

    by_kind = {
        "u16": (0, 0x1234, 0xFFFF),
        "u32": (0, 0x12345678, 0xFFFFFFFF),
        "u128": (0, (0xFFFF_FFFF_FFFF << 24) | 0x123456, max_u128),
        "f64": (0.0, 12.625, -1e300),
        "bool": (False, True, True),
        "desc": (None, NodeDescriptor(0, 0),
                 NodeDescriptor(max_u128, max_u64)),
        "desc_list": (descs(0), descs(1), descs(32)),
        "rows": ({}, {7: descs(1), 3: []}, {40000: descs(32), 2: descs(2)}),
    }
    payloads = {"Lookup": (None, b"\x00\xfe\xff", "caf\u00e9 \U0001f310"),
                "AppDirect": (-(1 << 63), "", (1 << 63) - 1)}
    sender = NodeDescriptor(0xA5 << 120 | 0x5A, (0x0A010203 << 16) | 4242)
    out = {}
    for _tid, cls, fields in wire._REGISTRY:
        for v, variant in enumerate(WIRE_FRAME_VARIANTS):
            msg = cls()
            msg.sender = sender if v >= 1 else None
            msg.tuning_hint = 17.5 if v == 2 else None
            for attr, kind in fields:
                value = (payloads[cls.__name__] if kind == "payload"
                         else by_kind[kind])[v]
                setattr(msg, attr, value)
            out[f"{cls.__name__}/{variant}"] = msg
    return out


def compute_wire_frames() -> str:
    """The text of ``wire_frames.json``.  Not part of ``main``: see the
    module docstring."""
    import json

    from repro.runtime.wire import encode_frame

    frames = {name: encode_frame(msg).hex()
              for name, msg in wire_frame_instances().items()}
    return json.dumps({"schema": 1, "frames": frames}, indent=2) + "\n"


def main() -> int:
    for name in GOLDEN_RUNS:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(compute(name))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
