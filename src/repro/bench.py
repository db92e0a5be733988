"""Simulation-core performance benchmarks (``repro bench``).

A fixed suite of deterministic scenarios exercises each layer of the
message hot path — the event engine, the transport, a full overlay
join/churn slice and the topology delay lookup — and reports throughput
(events per wall-clock second) alongside a per-scenario *fingerprint* of
the simulated outcome.  Results are written to a schema-versioned JSON
file (``BENCH_sim_core.json`` at the repo root) so the performance
trajectory accumulates across PRs: the file carries a pinned *baseline*
block (the pre-refactor numbers) next to the current results and the
derived speedups.

Two properties are load-bearing:

* **Determinism** — every scenario is run twice and must produce the same
  fingerprint both times; a mismatch is a :class:`BenchError` (non-zero
  exit), which is what CI's ``bench-smoke`` job fails on.  Throughput is
  *never* an error: machines differ, fingerprints must not.
* **Wall-clock isolation** — this module reads ``time.perf_counter`` and
  therefore lives *outside* the simulation packages; detlint's DET002
  bans real-clock reads inside ``repro/sim`` et al. (see
  ``repro.analysis.rules_determinism``).
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

#: bump when the JSON layout changes incompatibly
SCHEMA = "repro-bench-sim-core/2"
#: default output file, at the repo root so the trajectory is versioned
DEFAULT_OUT = "BENCH_sim_core.json"
#: scenarios the ISSUE's >= 1.5x acceptance target is measured on
CORE_SCENARIOS = ("engine_events", "transport_echo")


class BenchError(Exception):
    """A schema or determinism failure (never a throughput judgement)."""


# ----------------------------------------------------------------------
# Scenarios.  Each takes `quick` and returns (work_units, fingerprint).
# Work units are what the reported rate counts (executed events, delivered
# messages, delay queries); the fingerprint condenses the simulated outcome
# and must be bit-stable across runs and across the refactor.
# ----------------------------------------------------------------------

def _scenario_engine_events(quick: bool) -> Tuple[int, str]:
    """Engine microbench: fire-and-forget self-rescheduling event chains."""
    from repro.sim.engine import Simulator

    target = 40_000 if quick else 250_000
    chains = 64
    sim = Simulator()
    # Fall back to schedule() on a pre-fast-path engine so the same scenario
    # can record the baseline numbers.
    schedule = getattr(sim, "schedule_call", None) or sim.schedule
    fired = [0]

    def tick(chain: int) -> None:
        fired[0] += 1
        if fired[0] + chains <= target:
            schedule(0.001 + 0.0001 * (chain % 7), tick, chain)

    for chain in range(chains):
        schedule(0.0005 * (chain + 1), tick, chain)
    sim.run()
    return sim.events_executed, f"{sim.events_executed}:{sim.now:.9f}"


def _scenario_engine_timers(quick: bool) -> Tuple[int, str]:
    """Engine cancel path: every event arms a timer and cancels the last.

    This is the ack/retransmission pattern that strands lazily-cancelled
    handles on the heap, so it exercises cancellation bookkeeping and (on a
    compacting engine) heap compaction.
    """
    from repro.sim.engine import Simulator

    target = 30_000 if quick else 150_000
    sim = Simulator()
    fired = [0]
    pending = [None]

    def tick() -> None:
        fired[0] += 1
        old = pending[0]
        if old is not None:
            old.cancel()
        if fired[0] < target:
            # The armed timer sits 100 simulated seconds out and is almost
            # always cancelled by the next tick — dead weight on the heap.
            pending[0] = sim.schedule(100.0, _unreached)
            sim.schedule(0.01, tick)

    def _unreached() -> None:
        fired[0] += 1_000_000  # poisons the fingerprint if ever reached

    sim.schedule(0.01, tick)
    sim.run()
    live = getattr(sim, "live_events", None)
    return (
        sim.events_executed,
        f"{sim.events_executed}:{fired[0]}:{sim.now:.9f}:{live}",
    )


def _scenario_transport_echo(quick: bool) -> Tuple[int, str]:
    """Transport echo storm: a ring of handlers forwarding on delivery.

    Uses the warm-up configuration — no loss, no faults, no stats
    collector — so every optional step of ``Network.send`` is skipped.
    """
    import random

    from repro.network.simple import UniformDelayTopology
    from repro.network.transport import Network
    from repro.sim.engine import Simulator

    n_nodes = 16
    target = 30_000 if quick else 200_000
    sim = Simulator()
    net = Network(sim, UniformDelayTopology(delay=0.05), random.Random(1234))
    addrs = [net.attach() for _ in range(n_nodes)]
    received = [0]

    def make_handler(me: int) -> Callable[[int, object], None]:
        def handler(src: int, msg: object) -> None:
            received[0] += 1
            if received[0] + n_nodes <= target:
                net.send(addrs[me], addrs[(me + 1) % n_nodes], msg)
        return handler

    for i in range(n_nodes):
        net.register(addrs[i], make_handler(i))
    for i in range(n_nodes):
        net.send(addrs[i], addrs[(i + 1) % n_nodes], ("ping", i))
    sim.run()
    fingerprint = (
        f"{net.messages_sent}:{net.messages_delivered}:"
        f"{net.messages_lost}:{sim.now:.9f}"
    )
    return net.messages_delivered, fingerprint


def _scenario_overlay_churn(quick: bool) -> Tuple[int, str]:
    """A join/churn slice of the fig4 setup: Gnutella trace, GATech net."""
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(seed=93, topology="gatech", topology_scale=0.1)
    # Full mode: 0.5 x Gnutella's 2000 average actives ~= a 1000-node slice.
    scale = 0.05 if quick else 0.5
    duration = 300.0 if quick else 600.0
    runner = scenario.build_runner()
    result = runner.run(scenario.gnutella_trace(scale, duration))
    fingerprint = (
        f"{runner.sim.events_executed}:{runner.network.messages_sent}:"
        f"{runner.network.messages_delivered}:{result.stats.n_lookups}:"
        f"{result.final_active}"
    )
    return runner.sim.events_executed, fingerprint


def _scenario_corporate_slice(quick: bool) -> Tuple[int, str]:
    """A calibration-scale slice of the paper's Microsoft corporate run.

    Uses :func:`repro.experiments.full_scale.build_full_run` with the same
    presets as the 20k-machine headline setup — the Microsoft desktop trace
    on the CorpNet topology it was measured on — scaled down by the trace
    ``scale``/``duration`` overrides so the new workload is pinned in the
    perf trajectory without costing hours.
    """
    from repro.experiments.full_scale import build_full_run

    scale = 0.005 if quick else 0.02  # ~75 / ~300 of the 15,150 avg machines
    duration = 1800.0 if quick else 3600.0
    runner, trace = build_full_run(
        "microsoft", "corpnet", seed=77, scale=scale, duration=duration
    )
    result = runner.run(trace)
    fingerprint = (
        f"{runner.sim.events_executed}:{runner.network.messages_sent}:"
        f"{runner.network.messages_delivered}:{result.stats.n_lookups}:"
        f"{result.final_active}"
    )
    return runner.sim.events_executed, fingerprint


def _scenario_mercator_100k(quick: bool) -> Tuple[int, str]:
    """Gnutella churn slice on the full-size Mercator router map.

    Full mode builds the hierarchical AS topology at the paper's published
    scale — 2,662 autonomous systems averaging ~39 routers each, ~102k
    routers total (§5.1) — so the delay path exercises AS-path
    reconstruction, gateway traversal and the hop-count cache at realistic
    map size instead of the toy maps the other scenarios use.  Quick mode
    shrinks the map to CI size.  The map builds in about a second, but
    under tracemalloc its two million edge draws take four times that, so
    this scenario opts out of the tracemalloc run (``trace_memory=False``):
    instrumented allocation tracking at this size multiplies wall clock
    without changing the determinism check.
    """
    from repro.network.hierarchical_as import HierarchicalASTopology
    from repro.overlay.runner import OverlayRunner
    from repro.pastry.config import PastryConfig
    from repro.sim.rng import RngStreams
    from repro.traces.realworld import GNUTELLA, generate_real_world_trace

    streams = RngStreams(171)
    rng = streams.stream("topology")
    if quick:
        topology = HierarchicalASTopology(rng, n_as=160, routers_per_as=16)
        scale, duration = 0.05, 120.0
    else:
        topology = HierarchicalASTopology(rng, n_as=2662, routers_per_as=39)
        scale, duration = 0.1, 300.0
    runner = OverlayRunner(
        PastryConfig(), topology, streams, stats_window=300.0
    )
    trace = generate_real_world_trace(
        streams.stream("trace"), GNUTELLA, scale=scale, duration=duration
    )
    result = runner.run(trace)
    fingerprint = (
        f"{runner.sim.events_executed}:{runner.network.messages_sent}:"
        f"{runner.network.messages_delivered}:{result.stats.n_lookups}:"
        f"{result.final_active}:{topology.n_routers}"
    )
    return runner.sim.events_executed, fingerprint


def _scenario_full_gnutella(quick: bool) -> Tuple[int, str]:
    """The fig4 Gnutella workload at full population (opt-in).

    ``scale=1.0`` reproduces the trace's published average active
    population of ~2,000 nodes — ``overlay_churn`` is the same setup at
    half that.  Minutes per run, so it is excluded from the default suite;
    select it explicitly with ``--scenario full_gnutella`` when a change
    claims wins that should survive full scale.
    """
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(seed=93, topology="gatech", topology_scale=0.1)
    duration = 600.0 if quick else 3600.0
    runner = scenario.build_runner()
    result = runner.run(scenario.gnutella_trace(1.0, duration))
    fingerprint = (
        f"{runner.sim.events_executed}:{runner.network.messages_sent}:"
        f"{runner.network.messages_delivered}:{result.stats.n_lookups}:"
        f"{result.final_active}"
    )
    return runner.sim.events_executed, fingerprint


def _scenario_topology_delay(quick: bool) -> Tuple[int, str]:
    """Raw delay lookups over the GATech transit-stub router graph."""
    import random

    from repro.network.transit_stub import TransitStubTopology

    rng = random.Random(4242)
    topo = TransitStubTopology.scaled(rng, scale=0.25)
    n_nodes = 400
    for _ in range(n_nodes):
        topo.attach(rng)
    queries = 50_000 if quick else 400_000
    acc = 0.0
    state = 1
    for _ in range(queries):
        state = (state * 1103515245 + 12345) % (n_nodes * n_nodes)
        acc += topo.delay(state // n_nodes, state % n_nodes)
    return queries, f"{acc:.9f}:{topo.n_routers}"


@dataclass(frozen=True, slots=True)
class BenchScenario:
    name: str
    description: str
    unit: str
    fn: Callable[[bool], Tuple[int, str]]
    #: bumped when the *format* of this scenario's fingerprint changes
    #: (e.g. a new counter joins the string); fingerprints are only ever
    #: compared between identical versions — see run_bench.
    fingerprint_version: int = 1
    #: False skips tracemalloc on the second (determinism-check) run; the
    #: memory columns record null.  For scenarios whose working set is so
    #: large that instrumented allocation tracking multiplies wall clock.
    trace_memory: bool = True
    #: opt-in scenarios are excluded from the default suite and run only
    #: when named explicitly via ``--scenario``.
    opt_in: bool = False


SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        "engine_events", "fire-and-forget event chains (engine only)",
        "events", _scenario_engine_events),
    # fingerprint_version 2: the format gained the live_events counter when
    # the compacting engine landed (the pre-refactor baseline recorded
    # ':None' in that position — a different format, not a different
    # outcome, so the two must never be diffed).
    BenchScenario(
        "engine_timers", "arm-and-cancel timer churn (lazy cancellation)",
        "events", _scenario_engine_timers, fingerprint_version=2),
    BenchScenario(
        "transport_echo", "16-node echo storm, no loss/faults/stats",
        "messages", _scenario_transport_echo),
    BenchScenario(
        "overlay_churn", "Gnutella join/churn slice on GATech (fig4 setup)",
        "events", _scenario_overlay_churn),
    BenchScenario(
        "corporate_slice", "Microsoft trace slice on CorpNet (paper headline)",
        "events", _scenario_corporate_slice),
    BenchScenario(
        "topology_delay", "transit-stub delay lookups (cold + cached rows)",
        "queries", _scenario_topology_delay),
    BenchScenario(
        "mercator_100k",
        "Gnutella slice on the full 102k-router Mercator map",
        "events", _scenario_mercator_100k, trace_memory=False),
    BenchScenario(
        "full_gnutella",
        "fig4 Gnutella workload at full 2k-node population (opt-in)",
        "events", _scenario_full_gnutella, trace_memory=False, opt_in=True),
)


# ----------------------------------------------------------------------
# Execution and reporting
# ----------------------------------------------------------------------

def _peak_rss_kb() -> Optional[int]:
    """OS-reported high-water RSS.  Monotone over the process lifetime, so
    across a multi-scenario run it is only an upper bound per scenario; the
    per-scenario memory signal is ``tracemalloc_peak_kb``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_scenario(scenario: BenchScenario, quick: bool) -> Dict[str, object]:
    """Time and measure one scenario.

    Two runs.  The first is uninstrumented and supplies the timing; the
    second runs under tracemalloc (2-5x slower, so it is excluded from the
    timing) and supplies the memory columns.  Both must produce the same
    fingerprint — the same-seed determinism self-check.  A scenario with
    ``trace_memory=False`` still runs twice (the determinism check is
    non-negotiable) but the second run is uninstrumented too and the
    memory columns record null.
    """
    started = time.perf_counter()
    work_a, fp_a = scenario.fn(quick)
    elapsed = time.perf_counter() - started

    if scenario.trace_memory:
        tracemalloc.start()
        tracemalloc.reset_peak()
        work_b, fp_b = scenario.fn(quick)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_kb: Optional[float] = round(peak / 1024.0, 1)
        current_kb: Optional[float] = round(current / 1024.0, 1)
    else:
        work_b, fp_b = scenario.fn(quick)
        peak_kb = None
        current_kb = None

    if fp_a != fp_b or work_a != work_b:
        raise BenchError(
            f"{scenario.name}: non-deterministic outcome — "
            f"{fp_a!r}/{work_a} vs {fp_b!r}/{work_b}"
        )
    return {
        "description": scenario.description,
        "unit": scenario.unit,
        "work": work_a,
        "wall_s": round(elapsed, 4),
        "rate_per_s": round(work_a / elapsed, 1) if elapsed > 0 else 0.0,
        "fingerprint": fp_a,
        "fingerprint_version": scenario.fingerprint_version,
        "tracemalloc_peak_kb": peak_kb,
        "tracemalloc_current_kb": current_kb,
        "peak_rss_kb": _peak_rss_kb(),
    }


def _load_existing(path: Path) -> Optional[Dict]:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"unreadable bench file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BenchError(f"{path} is not a bench report")
    if data.get("schema") != SCHEMA:
        raise BenchError(
            f"{path} has schema {data.get('schema')!r}, expected {SCHEMA!r}; "
            f"move it aside or pass --rebaseline to a fresh --out path"
        )
    return data


def _speedups(results: Dict[str, Dict], baseline: Optional[Dict]) -> Dict[str, float]:
    if not baseline or baseline.get("mode") is None:
        return {}
    base_results = baseline.get("results", {})
    speedups = {}
    for name, entry in results.items():
        base = base_results.get(name)
        if not base or not base.get("rate_per_s"):
            continue
        speedups[name] = round(entry["rate_per_s"] / base["rate_per_s"], 3)
    return speedups


def _fingerprint_status(
    results: Dict[str, Dict],
    baseline: Optional[Dict],
    history: Sequence[Dict] = (),
    mode: Optional[str] = None,
) -> Dict[str, str]:
    """Compare each scenario's fingerprint against the baseline's.

    Fingerprints are only diffed when both sides recorded the same
    fingerprint *format* version.  A version mismatch is refused and
    labelled, never silently compared: the stale schema/1 ``engine_timers``
    baseline literally ends ``:None`` where current runs record a
    live-event count, so a plain string comparison would report a
    behaviour change that never happened (or, worse, mask one).

    A refused (or absent) baseline is no longer a dead end, though: the
    most recent *history* entry of the same mode that recorded this
    scenario under the same fingerprint format is consulted instead, so a
    format bump keeps behaviour-change detection alive from the very next
    run instead of reporting "not compared" until someone rebaselines.
    """
    statuses: Dict[str, str] = {}
    base_results = (baseline or {}).get("results", {})
    for name, entry in results.items():
        version = entry["fingerprint_version"]
        base = base_results.get(name)
        if (
            base
            and "fingerprint" in base
            and base.get("fingerprint_version", 0) == version
        ):
            statuses[name] = (
                "match" if base["fingerprint"] == entry["fingerprint"]
                else "CHANGED"
            )
            continue
        past_fp = None
        for past in reversed(list(history)):
            if mode is not None and past.get("mode") != mode:
                continue
            if past.get("fingerprint_versions", {}).get(name) != version:
                continue
            past_fp = past.get("fingerprints", {}).get(name)
            if past_fp is not None:
                break
        if past_fp is not None:
            statuses[name] = (
                "match (vs history)" if past_fp == entry["fingerprint"]
                else "CHANGED (vs history)"
            )
        elif not base or "fingerprint" not in base:
            statuses[name] = "no-baseline"
        else:
            statuses[name] = (
                f"format-change v{base.get('fingerprint_version', 0)}->"
                f"v{version}: not compared"
            )
    return statuses


def run_bench(
    quick: bool = False,
    out: str = DEFAULT_OUT,
    label: str = "",
    rebaseline: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> Tuple[Dict, str]:
    """Run the suite, merge with the existing file, write, and render.

    Returns ``(report_dict, human_readable_text)``.  Raises
    :class:`BenchError` on determinism or schema failures.
    """
    # Opt-in scenarios (minutes-per-run workloads) join only when named.
    selected = [s for s in SCENARIOS if not s.opt_in]
    if scenarios:
        known = {s.name for s in SCENARIOS}
        unknown = sorted(set(scenarios) - known)
        if unknown:
            raise BenchError(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        selected = [s for s in SCENARIOS if s.name in set(scenarios)]

    mode = "quick" if quick else "full"
    results = {s.name: run_scenario(s, quick) for s in selected}

    path = Path(out)
    existing = _load_existing(path)
    baseline = existing.get("baseline") if existing else None
    if rebaseline or baseline is None:
        baseline = {"label": label or mode, "mode": mode, "results": results}
    # Speedups and fingerprint diffs are only meaningful against a baseline
    # of the same mode: quick and full runs use different workload sizes.
    comparable = baseline if baseline.get("mode") == mode else None
    speedups = _speedups(results, comparable)
    history = list(existing.get("history", [])) if existing else []
    # Fingerprint comparison sees only *prior* runs (the current entry is
    # appended below) — comparing a run against itself would always match.
    fingerprints = _fingerprint_status(results, comparable, history, mode)
    history.append({
        "label": label or mode,
        "mode": mode,
        "rates": {name: entry["rate_per_s"] for name, entry in results.items()},
        "tracemalloc_peak_kb": {
            name: entry["tracemalloc_peak_kb"] for name, entry in results.items()
        },
        # Recorded so the next run can fall back to history when the
        # pinned baseline predates a fingerprint format bump.
        "fingerprints": {
            name: entry["fingerprint"] for name, entry in results.items()
        },
        "fingerprint_versions": {
            name: entry["fingerprint_version"]
            for name, entry in results.items()
        },
    })

    report = {
        "schema": SCHEMA,
        "label": label or mode,
        "mode": mode,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "core_scenarios": list(CORE_SCENARIOS),
        "results": results,
        "baseline": baseline,
        "speedup": speedups,
        "fingerprint_vs_baseline": fingerprints,
        "history": history,
    }
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report, render_report(report)


def render_report(report: Dict) -> str:
    lines = [
        f"repro bench ({report['mode']}) — python {report['python']}",
        f"{'scenario':16s} {'work':>9s} {'wall_s':>8s} "
        f"{'rate/s':>12s} {'peak_kb':>10s} {'vs baseline':>12s} {'fp':>8s}",
    ]
    speedups = report.get("speedup", {})
    fingerprints = report.get("fingerprint_vs_baseline", {})
    for name, entry in report["results"].items():
        speed = speedups.get(name)
        speed_text = f"{speed:.2f}x" if speed is not None else "-"
        status = fingerprints.get(name, "-")
        fp_text = {
            "match": "ok", "no-baseline": "-", "CHANGED": "CHANGED",
            "match (vs history)": "ok*", "CHANGED (vs history)": "CHANGED",
        }.get(status, "format")
        peak_kb = entry["tracemalloc_peak_kb"]
        peak_text = f"{peak_kb:>10,.0f}" if peak_kb is not None else f"{'-':>10s}"
        lines.append(
            f"{name:16s} {entry['work']:>9d} {entry['wall_s']:>8.3f} "
            f"{entry['rate_per_s']:>12,.0f} "
            f"{peak_text} "
            f"{speed_text:>12s} {fp_text:>8s}"
        )
    baseline = report.get("baseline") or {}
    lines.append(
        f"baseline: {baseline.get('label', '-')} ({baseline.get('mode', '-')})"
    )
    for name, status in fingerprints.items():
        if status.startswith("format-change"):
            lines.append(f"note: {name} fingerprint {status}")
        elif status.endswith("(vs history)"):
            lines.append(
                f"note: {name} fingerprint compared against the most "
                f"recent same-format history entry (baseline predates a "
                f"format change)"
            )
    return "\n".join(lines)


def verify_report_schema(report: Dict) -> None:
    """Structural sanity check used by tests and the CI smoke job."""
    if report.get("schema") != SCHEMA:
        raise BenchError(f"bad schema: {report.get('schema')!r}")
    for key in ("mode", "results", "baseline", "history",
                "fingerprint_vs_baseline"):
        if key not in report:
            raise BenchError(f"missing key: {key}")
    for name, entry in report["results"].items():
        for field in ("unit", "work", "wall_s", "rate_per_s", "fingerprint",
                      "fingerprint_version", "tracemalloc_peak_kb",
                      "tracemalloc_current_kb", "peak_rss_kb"):
            if field not in entry:
                raise BenchError(f"results[{name!r}] missing {field!r}")
    for entry in report["history"]:
        if "rates" not in entry or "label" not in entry:
            raise BenchError("history entry missing rates/label")
