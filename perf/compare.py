"""Compare two result files of ``perf/run.py``, row by row.

    python3 perf/compare.py A.json B.json     # A is the parent, B the change
    python3 perf/compare.py --aa [--smoke]    # same tree twice: all unchanged?

One row per (end-to-end metric, workload): both medians and quartiles, the
ratio B/A with its base, and a verdict from the bound ``BENCHMARK.json``
fixes for the metric (choosing-metrics guide, sections 6 and 8):

``unresolved``  either side's quartile spread is wider than the bound, so
                the runs cannot tell a change of that size from noise;
``regressed``   B's median is worse than A's by more than the bound;
``improved``    at least ten pairs were run, B wins nine tenths of them, and
                the medians differ by more than A's own quartile spread;
``unchanged``   none of the above.

Modelled-overlay metrics and the fingerprint are simulated statistics: for
one seed they must be identical in A and B unless the change says it alters
behaviour, so any difference is listed.  Exit code 1 when a row regressed
(or, with ``--aa``, when any row is not ``unchanged``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

import run as suite

MIN_PAIRS = 10


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    a_q1, a_med, a_q3 = suite.quartiles(a)
    b_q1, b_med, b_q3 = suite.quartiles(b)
    if a_med == 0:
        return "unchanged" if b_med == 0 else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med),
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if spread > bound:
        return "unresolved"
    if worsening > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """Rows for the end-to-end metrics, differences for the modelled ones."""
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    rows, changed = [], []
    same_inputs = all(a[key] == b[key] for key in ("seed", "seconds", "smoke"))
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, spec in specs.items():
            va, vb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            a_q1, a_med, a_q3 = suite.quartiles(va)
            b_q1, b_med, b_q3 = suite.quartiles(vb)
            rows.append({
                "metric": name, "workload": workload, "unit": spec["unit"],
                "a": (a_q1, a_med, a_q3, len(va)),
                "b": (b_q1, b_med, b_q3, len(vb)),
                "ratio": b_med / a_med if a_med else float("nan"),
                "bound": spec["bound"],
                "verdict": verdict(va, vb, spec["better"], spec["bound"]),
            })
        if same_inputs:
            for key in ("fingerprint", "modelled"):
                if entry_a[key] != entry_b[key]:
                    changed.append(f"{workload}: {key} {entry_a[key]} -> "
                                   f"{entry_b[key]}")
    return {"rows": rows, "changed": changed, "same_inputs": same_inputs}


def render(result: Dict[str, Any]) -> str:
    lines = [f"{'metric':24s} {'workload':16s} {'unit':>8s} "
             f"{'A median [q1, q3] n':>38s} {'B median [q1, q3] n':>38s} "
             f"{'B/A':>7s} {'bound':>6s}  verdict"]
    for row in result["rows"]:
        def side(q):
            q1, median, q3, n = q
            return f"{median:.5g} [{q1:.5g}, {q3:.5g}] {n}"
        lines.append(
            f"{row['metric']:24s} {row['workload']:16s} {row['unit']:>8s} "
            f"{side(row['a']):>38s} {side(row['b']):>38s} "
            f"{row['ratio']:7.3f} {row['bound']:6.2f}  {row['verdict']}")
    if not result["same_inputs"]:
        lines.append("seed, seconds or smoke differ: modelled metrics and "
                     "fingerprints not compared")
    elif result["changed"]:
        lines.append("behaviour changed (same inputs, different outputs):")
        lines += [f"  {line}" for line in result["changed"]]
    else:
        lines.append("fingerprints and modelled-overlay metrics identical")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULTS.json")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice on this tree and require "
                             "every row unchanged")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int, default=suite.DEFAULT_REPEATS)
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    args = parser.parse_args(argv)
    benchmark = suite.load_benchmark()
    if args.aa:
        if args.files:
            parser.error("--aa takes no result files")
        names = [w["name"] for w in benchmark["workloads"]]
        a, b = (suite.run_suite(names, args.seed,
                                float(benchmark["run_seconds"]), args.repeats,
                                False, args.smoke) for _ in range(2))
        for label, results in (("aa_first", a), ("aa_second", b)):
            with open(os.path.join(suite.OUT_DIR, f"{label}.json"), "w") as fh:
                json.dump(results, fh, indent=1)
    elif len(args.files) == 2:
        loaded = []
        for path in args.files:
            with open(path) as fh:
                loaded.append(json.load(fh))
            if loaded[-1].get("schema") != suite.SCHEMA:
                parser.error(f"{path} is not a {suite.SCHEMA} file")
        a, b = loaded
    else:
        parser.error("give two result files, or --aa")

    result = compare(a, b, benchmark)
    print(render(result))
    verdicts = {row["verdict"] for row in result["rows"]}
    if args.aa:
        return 0 if verdicts <= {"unchanged"} and not result["changed"] else 1
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
