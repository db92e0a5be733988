"""The repo's benchmark: every workload, fresh-process repeats, medians.

    python3 perf/run.py [--workload W] [--seed N] [--repeats K] [--trace] [--smoke]

Runs ``perf/bench.py`` once per (workload, repeat), each in its own child
process (GC state, import cache and interned descriptors fresh), one at a
time — the box has 2 CPUs and the live workload needs one to itself.  Prints
every metric by name with unit, median, quartiles and sample count, and
writes everything to ``perf/out/results.json`` for ``perf/compare.py``.

Output checks are part of the run: repeats of one (workload, seed) must give
an identical fingerprint and identical modelled-overlay metrics, and every
child checks its own outputs (a traced child also against an untraced one).
Any violation is a non-zero exit, never a slower number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(PERF_DIR, "out")
BENCHMARK_JSON = os.path.join(os.path.dirname(PERF_DIR), "BENCHMARK.json")
SCHEMA = "perf-results/1"
DEFAULT_SEED = 2004  # README names the held-out seed later claims must hold on
DEFAULT_REPEATS = 3


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, tag: str) -> Dict[str, Any]:
    detail = os.path.join(OUT_DIR, f"{workload}.{tag}.json")
    command = [sys.executable, os.path.join(PERF_DIR, "bench.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--detail", detail]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} ({tag}) failed its checks:\n"
                         f"{done.stdout}")
    with open(detail) as fh:
        return json.load(fh)


def run_suite(workloads: List[str], seed: int, seconds: float, repeats: int,
              trace: bool, smoke: bool) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    results: Dict[str, Any] = {
        "schema": SCHEMA, "seed": seed, "seconds": seconds, "smoke": smoke,
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for repeat in range(repeats):
            print(f"[{workload}] repeat {repeat + 1}/{repeats}",
                  file=sys.stderr, flush=True)
            runs.append(run_child(workload, seed, seconds, False, smoke,
                                  f"run{repeat}"))
        first = runs[0]
        for other in runs[1:]:
            for key in ("fingerprint", "modelled", "attempted", "failed"):
                if other[key] != first[key]:
                    raise SystemExit(
                        f"{workload}: {key} differs between repeats of seed "
                        f"{seed}: {first[key]} vs {other[key]}")
        entry = {
            key: first[key]
            for key in ("fingerprint", "modelled", "sizes", "attempted",
                        "failed")}
        entry["end_to_end"] = {
            name: [run["metrics"][name]["value"] for run in runs]
            for name in first["metrics"]}
        if trace:
            print(f"[{workload}] traced run", file=sys.stderr, flush=True)
            traced = run_child(workload, seed, seconds, True, smoke, "traced")
            entry["per_layer"] = {
                name: metric["value"]
                for name, metric in traced["metrics"].items()}
        results["workloads"][workload] = entry
    return results


def report(results: Dict[str, Any], benchmark: Dict[str, Any]) -> str:
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    lines = []
    for workload, entry in results["workloads"].items():
        lines.append(f"\n== {workload}  seed {results['seed']}  "
                     f"fingerprint {entry['fingerprint']}  lookups "
                     f"attempted/failed {entry['attempted']}/{entry['failed']}")
        lines.append(f"   sizes: {json.dumps(entry['sizes'])}")
        lines.append(f"   {'metric':36s} {'unit':>10s} {'median':>12s} "
                     f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
        for name, values in entry["end_to_end"].items():
            q1, median, q3 = quartiles(values)
            lines.append(f"   {name:36s} {units[name]:>10s} {median:12.6g} "
                         f"{q1:12.6g} {q3:12.6g} {len(values):3d}")
        for name, value in entry.get("per_layer", {}).items():
            lines.append(f"   {name:36s} {units[name]:>10s} {value:12.6g} "
                         f"{'':>12s} {'':>12s} {1:3d}")
    return "\n".join(lines)


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", action="store_true",
                        help="one extra traced child per workload: "
                             "per-layer metrics and perf/out/*.trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, whole suite in under 30 s")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    results = run_suite(args.workload or names, args.seed, args.seconds,
                        args.repeats, args.trace, args.smoke)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(report(results, benchmark))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
