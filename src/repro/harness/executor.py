"""Sweep execution: inline for one worker, a multiprocess pool otherwise.

Guarantees the rest of the harness is built on:

* **Determinism** — a job's result depends only on its :class:`RunSpec`
  (experiment, params, derived seed), never on worker count or scheduling
  order, so ``--jobs 1`` and ``--jobs 4`` produce byte-identical artifacts
  (modulo the ``timing`` fields).
* **Crash isolation** — an exception, a hung job (``timeout``), or a worker
  process dying outright records an *error artifact* for that run and the
  sweep carries on; nothing short of killing the parent stops the sweep.
* **Resume** — runs whose artifact already reports ``status == "ok"`` are
  skipped (pass ``force=True`` to re-execute them); error artifacts are
  retried, so re-invoking a partially failed sweep heals it.

Workers write their own artifacts (atomically, via the store); the parent
only monitors liveness and deadlines.  That keeps the result path identical
between the inline and pooled modes and leaves nothing to merge afterwards.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.experiments.resultio import to_jsonable

from repro.harness.progress import SweepProgress, null_progress
from repro.harness.spec import RunSpec, SweepSpec
from repro.harness.store import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    make_artifact,
)

_POLL_INTERVAL = 0.02


def _available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where possible)."""
    counter = getattr(os, "process_cpu_count", None)  # Python 3.13+
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def default_jobs(n_jobs: int) -> int:
    """Worker count when the user does not pass ``--jobs``.

    One worker per available CPU, never more workers than jobs — and
    *serial* on a single-core machine, where pool overhead makes a
    multiprocess sweep slower than inline execution
    (``benchmarks/results/harness_sweep.txt``: 0.77x with 4 workers on
    1 core).
    """
    cpus = _available_cpus()
    if cpus <= 1:
        return 1
    return max(1, min(cpus, n_jobs))


@dataclass
class SweepOutcome:
    """What happened to every run of one sweep invocation."""

    total: int
    ok: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.failed and len(self.ok) + len(self.skipped) == self.total


def _registry() -> Dict[str, Any]:
    # Imported lazily: experiment modules are heavy and worker processes on
    # spawn platforms re-import this module before running anything.
    from repro.experiments import ALL_EXPERIMENTS
    return ALL_EXPERIMENTS


def execute_job(job: RunSpec, registry: Optional[Dict] = None,
                mode: str = "inline") -> Dict:
    """Run one job to an artifact dict.  Never raises for job failures."""
    started = time.monotonic()
    try:
        modules = registry if registry is not None else _registry()
        module = modules.get(job.experiment)
        if module is None:
            raise KeyError(
                f"unknown experiment {job.experiment!r}; "
                f"try: {', '.join(modules)}"
            )
        kwargs = dict(job.params)
        if "seed" in inspect.signature(module.run).parameters:
            kwargs["seed"] = job.derived_seed
        result = to_jsonable(module.run(**kwargs))
        artifact = make_artifact(job, STATUS_OK, result=result)
    except Exception as exc:
        artifact = make_artifact(job, STATUS_ERROR, error={
            "kind": "exception",
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        })
    artifact["timing"] = {
        "elapsed_s": round(time.monotonic() - started, 3),
        "finished_at": time.time(),
        "mode": mode,
    }
    return artifact


def _worker_main(job: RunSpec, out_root: str,
                 registry: Optional[Dict] = None) -> None:
    """Entry point of a pool worker: run the job, persist its artifact."""
    store = ResultStore(out_root)
    store.write_artifact(execute_job(job, registry, mode="worker"))


def _status_label(artifact: Dict) -> str:
    if artifact.get("status") == STATUS_OK:
        return STATUS_OK
    error = artifact.get("error") or {}
    return f"{STATUS_ERROR} ({error.get('kind', 'unknown')})"


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                       else "spawn")


def _run_pool(pending: List[RunSpec], store: ResultStore, jobs: int,
              timeout: Optional[float], progress: SweepProgress,
              registry: Optional[Dict]) -> None:
    ctx = _mp_context()
    queue = deque(pending)
    # run_id -> (process, job, start time); process is whatever class the
    # chosen start-method context manufactures.
    running: Dict[str, Tuple[Any, RunSpec, float]] = {}
    try:
        while queue or running:
            while queue and len(running) < jobs:
                job = queue.popleft()
                proc = ctx.Process(target=_worker_main,
                                   args=(job, str(store.root), registry))
                proc.start()
                running[job.run_id] = (proc, job, time.monotonic())
            reaped = False
            for run_id in list(running):
                proc, job, started = running[run_id]
                elapsed = time.monotonic() - started
                if not proc.is_alive():
                    proc.join()
                    del running[run_id]
                    artifact = store.read_artifact(run_id)
                    if artifact is None:
                        # The worker died without leaving an artifact
                        # (segfault, kill -9, ...): record the crash.
                        artifact = make_artifact(job, STATUS_ERROR, error={
                            "kind": "crash",
                            "message": f"worker exited with code "
                                       f"{proc.exitcode} and no artifact",
                        }, timing={"elapsed_s": round(elapsed, 3)})
                        store.write_artifact(artifact)
                    progress.finished(run_id, _status_label(artifact), elapsed)
                    reaped = True
                elif timeout is not None and elapsed > timeout:
                    proc.terminate()
                    proc.join(5.0)
                    if proc.is_alive():  # pragma: no cover - stubborn child
                        proc.kill()
                        proc.join()
                    del running[run_id]
                    if store.read_artifact(run_id) is None:
                        store.write_artifact(make_artifact(
                            job, STATUS_ERROR,
                            error={"kind": "timeout",
                                   "message": f"exceeded --timeout "
                                              f"{timeout:.1f}s"},
                            timing={"elapsed_s": round(elapsed, 3)},
                        ))
                    progress.finished(run_id, f"{STATUS_ERROR} (timeout)",
                                      elapsed)
                    reaped = True
            if not reaped:
                time.sleep(_POLL_INTERVAL)
    finally:
        for proc, _job, _started in running.values():
            proc.terminate()
        for proc, _job, _started in running.values():
            proc.join(5.0)


def run_sweep(
    spec: SweepSpec,
    out_dir: Union[str, Path],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    force: bool = False,
    progress: Optional[SweepProgress] = None,
    registry: Optional[Dict] = None,
) -> SweepOutcome:
    """Execute (or resume) ``spec`` into ``out_dir``.  See module docstring.

    ``jobs=None`` resolves to :func:`default_jobs` for the expanded sweep.
    """
    all_jobs = spec.expand()
    if jobs is None:
        jobs = default_jobs(len(all_jobs))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    store = ResultStore(out_dir)
    store.init_sweep(spec, [job.run_id for job in all_jobs], force=force)

    completed: Set[str] = set() if force else store.completed_run_ids()
    pending = [job for job in all_jobs if job.run_id not in completed]
    skipped = [job.run_id for job in all_jobs if job.run_id in completed]

    if progress is None:
        progress = null_progress(len(all_jobs))
    progress.skipped(len(skipped))

    try:
        if jobs == 1 and timeout is None:
            for job in pending:
                artifact = execute_job(job, registry)
                store.write_artifact(artifact)
                progress.finished(job.run_id, _status_label(artifact),
                                  artifact["timing"]["elapsed_s"])
        else:
            _run_pool(pending, store, jobs, timeout, progress, registry)
    finally:
        # Even on interruption the manifest reflects what finished, so the
        # next invocation resumes exactly the missing runs.
        store.refresh_manifest()
    statuses = store.run_statuses()
    outcome = SweepOutcome(total=len(all_jobs), skipped=skipped)
    for job in all_jobs:
        if job.run_id in skipped:
            continue
        if statuses.get(job.run_id) == STATUS_OK:
            outcome.ok.append(job.run_id)
        else:
            outcome.failed.append(job.run_id)
    return outcome
