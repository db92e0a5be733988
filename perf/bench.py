"""One benchmark run, in this process: the command ``BENCHMARK.json`` names.

    python3 perf/bench.py --workload W --seed N --seconds S --trace 0|1

generates workload ``W``'s inputs from the seed, runs it once, checks its
outputs, and prints as the last line of standard output one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  A
failed check is a non-zero exit, never a slower number.

A traced run first starts an untraced reference run of the same inputs in
a fresh process (tracing overhead is the ratio of the two, and both must
produce the same fingerprint and modelled metrics), then runs with the
tracing subclasses installed and writes the sampled spans to
``perf/out/<workload>.trace.json``.

``perf/run.py`` drives many of these and reports medians.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(PERF_DIR, "out")
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    # never fall back to a copy of the program installed elsewhere
    sys.exit("perf/bench.py measures the checkout it sits in; "
             f"{SRC_DIR}/repro is missing")
sys.path.insert(0, SRC_DIR)

import live  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = {**{name: spec.why
                for name, spec in workloads.SIM_WORKLOADS.items()},
             live.NAME: live.WHY}
#: set-ups per untraced run; the median is reported
SETUPS = 3


def run_reference(args: argparse.Namespace) -> dict:
    """The same inputs, untraced, in a fresh process."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        detail = os.path.join(tmp, "reference.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--setups", "1", "--detail", detail]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        if done.returncode != 0:
            raise SystemExit(f"untraced reference run failed:\n{done.stdout}")
        with open(detail) as fh:
            return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget; sizes the simulated "
                             "duration and the live phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, workload guards off")
    parser.add_argument("--setups", type=int, default=None,
                        help=f"set-ups to take the median of (default "
                             f"{SETUPS}; 1 when traced)")
    parser.add_argument("--detail", metavar="PATH",
                        help="also write the full result record here")
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _T_START
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = reference = None
    if args.trace:
        reference = run_reference(args)
        import tracing
        tracer = tracing.Tracer()
        if args.workload == live.NAME:
            tracing.install_live(tracer)
        else:
            tracing.install_sim(tracer)
    setups = args.setups or (1 if args.trace else SETUPS)

    if args.workload == live.NAME:
        result = live.run(args.seed, args.seconds, args.smoke, setups, tracer)
    else:
        result = workloads.run(workloads.SIM_WORKLOADS[args.workload],
                               args.seed, args.seconds, args.smoke, setups,
                               tracer)
    problems = result["problems"]
    end_to_end = result["end_to_end"]
    end_to_end["setup_s"] += import_s
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is None:
        values, units = end_to_end, END_TO_END
    else:
        values, units = result["per_layer"], PER_LAYER
        ref_run_s = reference["metrics"]["run_s"]["value"]
        values["trace.overhead_ratio"] = end_to_end["run_s"] / ref_run_s
        values["sim.events_per_s"] = (
            reference["sizes"].get("events", 0) / ref_run_s)
        values.update(reference.get("untraced") or {})
        for key in ("fingerprint", "modelled"):
            if reference[key] != result[key]:
                problems.append(f"traced {key} {result[key]} != untraced "
                                f"{reference[key]}: tracing perturbed the run")
        tracer.write(
            os.path.join(OUT_DIR, f"{args.workload}.trace.json"),
            {"workload": args.workload, "seed": args.seed,
             "fingerprint": result["fingerprint"],
             "traced_run_s": end_to_end["run_s"]})
    # a layer the workload does not use reports 0; an end-to-end metric
    # may not be missing, and no run may emit a name BENCHMARK.json lacks
    unknown = set(values) - set(units)
    missing = set(units) - set(values) if tracer is None else set()
    if unknown or missing:
        problems.append(f"metric names off: missing {sorted(missing)}, "
                        f"unknown {sorted(unknown)}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}

    record = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    detail = {**record, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "problems": problems,
              **{key: result.get(key) for key in
                 ("fingerprint", "modelled", "sizes", "untraced")}}
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(detail, fh, indent=1)
            fh.write("\n")
    for key in ("sizes", "fingerprint", "modelled", "problems"):
        print(f"{key}: {json.dumps(detail[key])}")
    print(json.dumps(record))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
