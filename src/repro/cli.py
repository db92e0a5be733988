"""Command-line interface: run any paper experiment and print its report.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig6 --seed 7
    python -m repro.cli run topologies --scale 0.1 --duration 3600
    python -m repro.cli run all
    python -m repro.cli sweep examples/sweeps/fig6_seeds.json --jobs 4 --out out/fig6
    python -m repro.cli report out/fig6
    python -m repro.cli serve --port 9000 --metrics-port 9001
    python -m repro.cli serve --seed 127.0.0.1:9000
    python -m repro.cli live --nodes 5 --lookups 50 --out out/live.json

``--scale`` and ``--duration`` map onto each experiment's scale parameters
where applicable (trace population scale and simulated seconds).

``sweep`` expands a JSON sweep spec (see ``repro.harness.spec``) into
independent jobs, fans them out over ``--jobs`` worker processes, and writes
one JSON artifact per run plus a manifest under ``--out``.  Re-invoking the
same sweep resumes it (completed runs are skipped; ``--force`` re-runs
them).  ``report`` aggregates a sweep directory across seeds (mean/CI).

Each verb imports what it runs: ``serve`` and ``live`` never load the
simulator, the experiments or the harness.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time


def _kwargs_for(module, args) -> dict:
    """Map shared CLI flags onto the experiment's run() signature."""
    signature = inspect.signature(module.run)
    kwargs = {}
    if "seed" in signature.parameters and args.seed is not None:
        kwargs["seed"] = args.seed
    if args.scale is not None:
        for name in ("trace_scale", "scale"):
            if name in signature.parameters:
                kwargs[name] = args.scale
                break
    if args.duration is not None and "duration" in signature.parameters:
        kwargs["duration"] = args.duration
    return kwargs


def _fail(message: str, status: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def run_experiment(name: str, args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    module = ALL_EXPERIMENTS.get(name)
    if module is None:
        print(f"unknown experiment {name!r}; try: {', '.join(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    kwargs = _kwargs_for(module, args)
    # perf_counter, not time.time(): wall clock can step backwards (NTP),
    # and this is an interval measurement.
    started = time.perf_counter()
    try:
        result = module.run(**kwargs)
    except Exception as exc:
        return _fail(f"{name}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - started
    print(module.format_report(result))
    print(f"\n[{name} finished in {elapsed:.1f}s]")
    return 0


def cmd_run(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.experiment != "all":
        return run_experiment(args.experiment, args)
    status = 0
    for name in ALL_EXPERIMENTS:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        status |= run_experiment(name, args)
    return status


def cmd_list(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    for name, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:12s} {doc}")
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.harness import (
        SpecError,
        StoreError,
        SweepProgress,
        SweepSpec,
        default_jobs,
        run_sweep,
    )

    try:
        spec = SweepSpec.from_file(args.spec)
    except SpecError as exc:
        return _fail(str(exc), status=2)
    if spec.experiment not in ALL_EXPERIMENTS:
        return _fail(
            f"spec names unknown experiment {spec.experiment!r}; "
            f"try: {', '.join(ALL_EXPERIMENTS)}", status=2)
    jobs_list = spec.expand()
    jobs = args.jobs if args.jobs is not None else default_jobs(len(jobs_list))
    if jobs < 1:
        return _fail(f"--jobs must be at least 1, got {jobs}", status=2)
    progress = SweepProgress(len(jobs_list), workers=jobs,
                             enabled=not args.quiet)
    try:
        outcome = run_sweep(
            spec, args.out, jobs=jobs, timeout=args.timeout,
            force=args.force, progress=progress,
        )
    except StoreError as exc:
        return _fail(str(exc), status=2)
    except KeyboardInterrupt:
        print(f"\ninterrupted — completed runs are kept; re-invoke the same "
              f"command to resume into {args.out}", file=sys.stderr)
        return 130
    print(progress.summary(skipped=len(outcome.skipped)), file=sys.stderr)
    print(f"artifacts: {args.out}", file=sys.stderr)
    if outcome.failed:
        return _fail(f"{len(outcome.failed)} run(s) failed — see "
                     f"`python -m repro.cli report {args.out}`")
    return 0


def cmd_report(args) -> int:
    from repro.harness import StoreError, format_sweep_report

    try:
        print(format_sweep_report(args.dir, metrics=args.metrics))
    except StoreError as exc:
        return _fail(str(exc), status=2)
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import random
    import signal

    from repro.pastry.nodeid import random_nodeid
    from repro.runtime.service import NodeService
    from repro.runtime.transport import pack_addr

    try:
        node_id = (int(args.id, 16) if args.id is not None
                   else random_nodeid(random.Random(args.rng_seed)))
    except ValueError:
        return _fail(f"--id wants a hex nodeId, got {args.id!r}", status=2)
    for flag, port in (("--port", args.port), ("--metrics-port", args.metrics_port)):
        if port is not None and not 0 <= port <= 65535:
            return _fail(f"{flag} wants 0-65535, got {port}", status=2)
    seed_addr = None
    if args.seed is not None:
        host, _, port = args.seed.rpartition(":")
        try:
            seed_addr = pack_addr(host, int(port))
        except (OSError, ValueError):
            return _fail(f"--seed wants IPV4:PORT, got {args.seed!r}", status=2)

    async def serve() -> None:
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        service = await NodeService.start(
            node_id=node_id, rng_seed=args.rng_seed, host=args.host,
            port=args.port, seed_addr=seed_addr,
            metrics_port=args.metrics_port, loop=loop)
        print(f"node {node_id:032x}", file=sys.stderr)
        print(f"listening on {service.endpoint}", file=sys.stderr)
        if service.metrics is not None:
            print(f"metrics on http://{args.host}:{service.metrics.port}/",
                  file=sys.stderr)
        try:
            await stop.wait()
        finally:
            print("shutting down", file=sys.stderr)
            await service.stop()

    asyncio.run(serve())
    return 0


def cmd_live(args) -> int:
    from repro.runtime.live import (
        LiveError,
        LiveSpec,
        format_live_report,
        run_live,
        write_live_artifact,
    )

    try:
        spec = LiveSpec(n_nodes=args.nodes, n_lookups=args.lookups,
                        seed=args.seed, host=args.host,
                        join_timeout=args.timeout, lookup_timeout=args.timeout)
    except LiveError as exc:
        return _fail(str(exc), status=2)
    try:
        artifact = run_live(spec)
    except LiveError as exc:
        return _fail(str(exc))
    print(format_live_report(artifact))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_live_artifact(artifact, args.out)
        print(f"written: {args.out}", file=sys.stderr)
    consistency = artifact["lookups"]["routing_consistency"]
    if args.min_consistency is not None:
        if consistency is None or consistency < args.min_consistency:
            return _fail(
                f"routing consistency {consistency} below required "
                f"{args.min_consistency}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the MSPastry (DSN 2004) evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment name or 'all'")
    runner.add_argument("--seed", type=int, default=None)
    runner.add_argument("--scale", type=float, default=None,
                        help="trace population scale (fraction of the paper's)")
    runner.add_argument("--duration", type=float, default=None,
                        help="simulated seconds")

    sweep = sub.add_parser(
        "sweep", help="run a parameter sweep from a JSON spec")
    sweep.add_argument("spec", help="path to a sweep spec (JSON)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per available "
                            "CPU, capped at the job count; serial on a "
                            "single-core machine)")
    sweep.add_argument("--out", required=True,
                       help="output directory for artifacts + manifest")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
    sweep.add_argument("--force", action="store_true",
                       help="re-run jobs whose artifacts already exist")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    report = sub.add_parser(
        "report", help="aggregate a sweep directory (mean/CI across seeds)")
    report.add_argument("dir", help="sweep output directory")
    report.add_argument("--metric", action="append", dest="metrics",
                        metavar="SUBSTR",
                        help="only metrics containing SUBSTR (repeatable)")

    serve = sub.add_parser(
        "serve", help="run one live MSPastry node on a real UDP socket")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="UDP port (default: OS-assigned)")
    serve.add_argument("--seed", metavar="HOST:PORT", default=None,
                       help="endpoint of any live node to join via "
                            "(omit to bootstrap a new overlay)")
    serve.add_argument("--id", default=None,
                       help="128-bit nodeId as hex (default: derived "
                            "from --rng-seed)")
    serve.add_argument("--rng-seed", type=int, default=0,
                       help="seed for the node's random stream")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve JSON node metrics over HTTP on this port")

    live = sub.add_parser(
        "live", help="run an N-node live UDP overlay plus lookup workload")
    live.add_argument("--nodes", type=int, default=5)
    live.add_argument("--lookups", type=int, default=50)
    live.add_argument("--seed", type=int, default=42)
    live.add_argument("--host", default="127.0.0.1")
    live.add_argument("--timeout", type=float, default=30.0,
                      help="join/workload timeout in seconds")
    live.add_argument("--out", default=None,
                      help="write the repro-live/1 artifact here")
    live.add_argument("--min-consistency", type=float, default=None,
                      help="exit non-zero below this routing consistency "
                           "(CI gate)")

    args = parser.parse_args(argv)
    verbs = {"list": cmd_list, "run": cmd_run, "sweep": cmd_sweep,
             "report": cmd_report, "serve": cmd_serve, "live": cmd_live}
    return verbs[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; silence the traceback
        # and exit like a well-behaved filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
