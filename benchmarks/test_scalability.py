"""Bench: scaling behaviour — hops grow logarithmically, overhead stays flat.

Not a paper figure, but the paper's §2 analysis predicts
hops ≈ (2^b−1)/2^b · log_{2^b} N and §4 argues per-node maintenance cost is
independent of overlay size.  This bench sweeps the overlay size and checks
both, and doubles as a wall-clock scalability benchmark of the simulator.
"""

import math

from benchmarks.conftest import run_figure
from repro.experiments.reporting import format_table
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.runner import OverlayRunner
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.synthetic import generate_poisson_trace

SIZES = (40, 80, 160, 320)


def run_sweep(seed=42, sizes=SIZES, duration=1200.0):
    rows = {}
    for n_nodes in sizes:
        streams = RngStreams(seed + n_nodes)
        topology = TransitStubTopology.scaled(
            streams.stream("topology"), scale=0.25
        )
        runner = OverlayRunner(
            PastryConfig(), topology, streams, stats_window=300.0
        )
        trace = generate_poisson_trace(
            streams.stream("trace"), n_nodes, 7200.0, duration
        )
        result = runner.run(trace)
        rows[n_nodes] = {
            "hops": result.stats.mean_hops(),
            "predicted_hops": 15 / 16 * math.log(n_nodes, 16) + 1,
            "control": result.control_traffic,
            "rdp_median": result.rdp_median,
            "loss": result.loss_rate,
            "incorrect": result.incorrect_delivery_rate,
        }
    return {"rows": rows}


def format_report(result):
    return "\n".join([
        "Scalability sweep — hops vs log N, per-node overhead vs N",
        format_table(
            ["N", "hops", "~(2^b-1)/2^b log16 N + 1", "control", "RDP-med",
             "loss"],
            [
                (n, r["hops"], r["predicted_hops"], r["control"],
                 r["rdp_median"], r["loss"])
                for n, r in result["rows"].items()
            ],
        ),
    ])


def test_scalability_sweep(benchmark):
    result = run_figure(benchmark, "scalability", run_sweep, format_report)

    rows = result["rows"]
    sizes = sorted(rows)
    # Hop count grows, but sub-linearly (logarithmically) with N.
    hops = [rows[n]["hops"] for n in sizes]
    assert hops[-1] > hops[0]
    assert hops[-1] < hops[0] * (sizes[-1] / sizes[0]) ** 0.5
    # Within ~1 hop of the paper's closed form at every size.
    for n in sizes:
        assert abs(rows[n]["hops"] - rows[n]["predicted_hops"]) < 1.2, n
    # Per-node control traffic grows far slower than the overlay (an 8x
    # larger overlay costs well under 3x per node: join state ~ l + 2^b
    # rows of log16 N, heartbeats constant).
    controls = [rows[n]["control"] for n in sizes]
    assert controls[-1] < 3.0 * controls[0]
    # Dependability at every size.
    for n in sizes:
        assert rows[n]["loss"] < 5e-3
        assert rows[n]["incorrect"] < 5e-3
