"""Bench: sweep harness — serial vs 4-worker wall-clock on an 8-job sweep.

Not a paper figure: this measures the orchestration layer itself.  The same
8-job fig3 sweep (4 trace scales x 2 seeds) runs once with ``--jobs 1``
(inline, no multiprocessing) and once with ``--jobs 4``, and the report
records both wall-clocks, the speedup, and the machine's core count.  On a
multi-core box the speedup approaches min(4, cores); on a single core it
documents the (small) process-pool overhead instead.  Either way the two
runs must produce byte-identical artifacts modulo timing — the harness's
determinism guarantee — which this bench re-checks at full scale.
"""

import json
import os
import time

from benchmarks.conftest import run_figure
from repro.experiments.reporting import format_table
from repro.harness import SweepSpec, run_sweep

# Jobs are sized (~0.5 s each) so per-job compute dominates the ~50 ms
# process-pool overhead; with trivial jobs the bench would measure forking.
SPEC = dict(
    name="bench",
    experiment="fig3",
    base={"microsoft_scale": 0.02},
    grid={"scale": [0.35, 0.4, 0.45, 0.5]},
    seeds=[1, 2],
)


def _canonical_runs(out_dir):
    runs = {}
    for path in sorted((out_dir / "runs").glob("*.json")):
        artifact = json.loads(path.read_text())
        artifact.pop("timing")
        runs[path.name] = json.dumps(artifact, sort_keys=True)
    return runs


def _timed_sweeps(spec, out_dir):
    """-> {jobs: wall-clock seconds} of the sweep serially, then on 4
    workers, each into ``out_dir / "jobs<n>"``."""
    timings = {}
    for jobs in (1, 4):
        started = time.perf_counter()
        outcome = run_sweep(spec, out_dir / f"jobs{jobs}", jobs=jobs)
        timings[jobs] = time.perf_counter() - started
        assert outcome.all_ok, outcome.failed
    return timings


def format_report(timings):
    serial, parallel = timings[1], timings[4]
    return "\n".join([
        "Sweep harness — 8-job fig3 sweep, serial vs 4 workers",
        format_table(
            ["mode", "wall-clock (s)", "jobs/s"],
            [("serial (--jobs 1)", serial, 8 / serial),
             ("4 workers (--jobs 4)", parallel, 8 / parallel)],
        ),
        f"\nspeedup: {serial / parallel:.2f}x on {os.cpu_count() or 1} core(s)",
    ])


def test_harness_parallel_speedup(benchmark, tmp_path):
    spec = SweepSpec.from_json(SPEC)
    assert len(spec.expand()) == 8

    timings = run_figure(benchmark, "harness_sweep", _timed_sweeps, format_report,
                         spec=spec, out_dir=tmp_path)
    speedup = timings[1] / timings[4]
    cores = os.cpu_count() or 1

    # Determinism at benchmark scale: identical artifacts modulo timing.
    assert _canonical_runs(tmp_path / "jobs1") == _canonical_runs(tmp_path / "jobs4")

    # On multi-core hardware the pool must actually win; on a single core
    # we only require that process orchestration doesn't blow up the cost.
    if cores >= 4:
        assert speedup > 1.5
    elif cores >= 2:
        assert speedup > 1.1
    else:
        assert speedup > 0.5
