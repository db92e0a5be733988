"""Executor: determinism across worker counts, resume, crash isolation.

The multiprocess tests use the real ``fig3`` experiment at a tiny scale
(~0.5 s per job) and require the ``fork`` start method to inject fake
experiment registries into workers; they are skipped on platforms without
it (the inline paths are exercised everywhere).
"""

import json
import multiprocessing
import time
import types

import pytest

from repro.harness import executor
from repro.harness.executor import default_jobs, execute_job, run_sweep
from repro.harness.progress import SweepProgress
from repro.harness.spec import SweepSpec
from repro.harness.store import ResultStore

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="registry injection into workers requires fork",
)

TINY_FIG3 = dict(
    name="tiny", experiment="fig3",
    base={"microsoft_scale": 0.002},
    grid={"scale": [0.01, 0.02]},
    seeds=[1, 2],
)


def tiny_spec(**overrides):
    doc = dict(TINY_FIG3)
    doc.update(overrides)
    return SweepSpec.from_json(doc)


def fake_module(fn):
    return types.SimpleNamespace(run=fn, format_report=lambda r: str(r))


def canonical_without_timing(path):
    artifact = json.loads(path.read_text())
    artifact.pop("timing")
    return json.dumps(artifact, sort_keys=True)


# ----------------------------------------------------------------------
# execute_job
# ----------------------------------------------------------------------
def test_execute_job_ok_and_derived_seed():
    seen = {}

    def run(seed=0, x=0):
        seen["seed"] = seed
        return {"x": x}

    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    base={"x": 3}, grid={}, seeds=[7]))
    job = spec.expand()[0]
    artifact = execute_job(job, registry={"fake": fake_module(run)})
    assert artifact["status"] == "ok"
    assert artifact["result"] == {"x": 3}
    assert seen["seed"] == job.derived_seed != 7
    assert artifact["timing"]["elapsed_s"] >= 0.0


def test_execute_job_exception_becomes_error_artifact():
    def run(seed=0):
        raise ValueError("deliberate")

    spec = SweepSpec.from_json(dict(name="t", experiment="fake", seeds=[1]))
    artifact = execute_job(spec.expand()[0],
                           registry={"fake": fake_module(run)})
    assert artifact["status"] == "error"
    assert artifact["result"] is None
    assert artifact["error"]["type"] == "ValueError"
    assert "deliberate" in artifact["error"]["traceback"]


def test_execute_job_unknown_experiment():
    spec = SweepSpec.from_json(dict(name="t", experiment="nope", seeds=[1]))
    artifact = execute_job(spec.expand()[0], registry={})
    assert artifact["status"] == "error"
    assert "unknown experiment" in artifact["error"]["message"]


# ----------------------------------------------------------------------
# Determinism (acceptance): --jobs 1 and --jobs 4 byte-identical artifacts
# ----------------------------------------------------------------------
@needs_fork
def test_jobs1_and_jobs4_artifacts_byte_identical(tmp_path):
    spec = tiny_spec()
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    outcome1 = run_sweep(spec, serial, jobs=1)
    outcome4 = run_sweep(spec, parallel, jobs=4)
    assert outcome1.all_ok and outcome4.all_ok
    assert outcome1.total == outcome4.total == 4

    serial_runs = sorted((serial / "runs").glob("*.json"))
    assert [p.name for p in serial_runs] == \
        [p.name for p in sorted((parallel / "runs").glob("*.json"))]
    for path in serial_runs:
        assert canonical_without_timing(path) == \
            canonical_without_timing(parallel / "runs" / path.name), path.name


def test_spawned_workers_match_inline(tmp_path, monkeypatch):
    """``spawn`` pickles each worker's target and arguments, as on platforms
    without ``fork``; a lambda or nested worker passes the fork-based tests
    above and fails here."""
    monkeypatch.setattr(executor, "_mp_context",
                        lambda: multiprocessing.get_context("spawn"))
    spec = tiny_spec(grid={"scale": [0.01]})
    serial, spawned = tmp_path / "serial", tmp_path / "spawned"
    assert run_sweep(spec, serial, jobs=1).all_ok
    assert run_sweep(spec, spawned, jobs=2).all_ok
    runs = sorted(path.name for path in (serial / "runs").glob("*.json"))
    assert len(runs) == 2
    assert runs == sorted(path.name for path in (spawned / "runs").glob("*.json"))
    for name in runs:
        assert canonical_without_timing(serial / "runs" / name) == \
            canonical_without_timing(spawned / "runs" / name), name


# ----------------------------------------------------------------------
# Resume (acceptance): only missing jobs re-run on re-invocation
#
# Tests that watch an in-process list pin ``jobs=1``: with ``jobs=None`` a
# multi-core machine forks workers and the parent's list stays empty.
# ----------------------------------------------------------------------
def test_resume_runs_only_missing_jobs(tmp_path):
    calls = []

    def run(seed=0, x=0):
        calls.append((x, seed))
        return {"x": x}

    registry = {"fake": fake_module(run)}
    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1, 2]))
    outcome = run_sweep(spec, tmp_path, jobs=1, registry=registry)
    assert outcome.all_ok and len(calls) == 4

    # Pre-seeded partial directory: drop two artifacts, keep the rest.
    store = ResultStore(tmp_path)
    store.artifact_path("fake-x=2--s1").unlink()
    store.artifact_path("fake-x=2--s2").unlink()

    calls.clear()
    outcome = run_sweep(spec, tmp_path, jobs=1, registry=registry)
    assert outcome.all_ok
    assert sorted(outcome.skipped) == ["fake-x=1--s1", "fake-x=1--s2"]
    assert sorted(outcome.ok) == ["fake-x=2--s1", "fake-x=2--s2"]
    assert sorted(x for x, _seed in calls) == [2, 2]

    # --force re-runs everything.
    calls.clear()
    outcome = run_sweep(spec, tmp_path, jobs=1, registry=registry,
                        force=True)
    assert outcome.all_ok and not outcome.skipped and len(calls) == 4


@pytest.mark.parametrize("cpus", [1, pytest.param(4, marks=needs_fork)])
def test_resume_same_outcome_on_any_core_count(tmp_path, monkeypatch, cpus):
    """``jobs=None`` on a 1-CPU and on a 4-CPU machine: the same runs are
    skipped and re-run, judged by the artifacts alone."""
    monkeypatch.setattr(executor, "_available_cpus", lambda: cpus)

    def run(seed=0, x=0):
        return {"x": x, "ran_at_ns": time.perf_counter_ns()}

    registry = {"fake": fake_module(run)}
    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1, 2]))
    assert run_sweep(spec, tmp_path, registry=registry).all_ok

    store = ResultStore(tmp_path)
    kept = ["fake-x=1--s1", "fake-x=1--s2"]
    dropped = ["fake-x=2--s1", "fake-x=2--s2"]
    before = {run_id: store.artifact_path(run_id).read_bytes()
              for run_id in kept + dropped}
    for run_id in dropped:
        store.artifact_path(run_id).unlink()

    outcome = run_sweep(spec, tmp_path, registry=registry)
    assert outcome.all_ok
    assert sorted(outcome.skipped) == kept and sorted(outcome.ok) == dropped
    for run_id in kept:  # untouched: not executed again
        assert store.artifact_path(run_id).read_bytes() == before[run_id]
    for run_id in dropped:  # executed again: a later ran_at_ns
        artifact = store.read_artifact(run_id)
        assert artifact["status"] == "ok" and artifact["result"]["x"] == 2
        assert store.artifact_path(run_id).read_bytes() != before[run_id]


def test_resume_retries_error_artifacts(tmp_path):
    attempts = []

    def run(seed=0):
        attempts.append(seed)
        if len(attempts) == 1:
            raise RuntimeError("flaky")
        return {"fine": 1}

    registry = {"fake": fake_module(run)}
    spec = SweepSpec.from_json(dict(name="t", experiment="fake", seeds=[1]))
    outcome = run_sweep(spec, tmp_path, jobs=1, registry=registry)
    assert outcome.failed == ["fake--s1"]
    outcome = run_sweep(spec, tmp_path, jobs=1, registry=registry)
    assert outcome.ok == ["fake--s1"] and not outcome.skipped


def test_mismatched_spec_refused(tmp_path):
    from repro.harness.store import StoreError

    registry = {"fake": fake_module(lambda seed=0: {})}
    run_sweep(SweepSpec.from_json(dict(name="t", experiment="fake",
                                       seeds=[1])),
              tmp_path, registry=registry)
    with pytest.raises(StoreError, match="different spec"):
        run_sweep(SweepSpec.from_json(dict(name="t", experiment="fake",
                                           seeds=[2])),
                  tmp_path, registry=registry)


# ----------------------------------------------------------------------
# Crash isolation and timeouts
# ----------------------------------------------------------------------
def test_inline_failure_does_not_stop_sweep(tmp_path):
    def run(seed=0, x=0):
        if x == 1:
            raise RuntimeError("boom")
        return {"x": x}

    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1]))
    outcome = run_sweep(spec, tmp_path, jobs=1,
                        registry={"fake": fake_module(run)})
    assert outcome.failed == ["fake-x=1--s1"]
    assert outcome.ok == ["fake-x=2--s1"]
    error = ResultStore(tmp_path).read_artifact("fake-x=1--s1")["error"]
    assert error["kind"] == "exception" and "boom" in error["message"]


@needs_fork
def test_worker_exception_isolated(tmp_path):
    def run(seed=0, x=0):
        if x == 1:
            raise RuntimeError("boom in worker")
        return {"x": x}

    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1]))
    outcome = run_sweep(spec, tmp_path, jobs=2,
                        registry={"fake": fake_module(run)})
    assert outcome.failed == ["fake-x=1--s1"]
    assert outcome.ok == ["fake-x=2--s1"]


@needs_fork
def test_worker_hard_crash_records_artifact(tmp_path):
    def run(seed=0):
        import os
        os._exit(17)  # dies without writing an artifact

    spec = SweepSpec.from_json(dict(name="t", experiment="fake", seeds=[1]))
    outcome = run_sweep(spec, tmp_path, jobs=2,
                        registry={"fake": fake_module(run)})
    assert outcome.failed == ["fake--s1"]
    error = ResultStore(tmp_path).read_artifact("fake--s1")["error"]
    assert error["kind"] == "crash" and "17" in error["message"]


@needs_fork
def test_timeout_kills_hung_job(tmp_path):
    def run(seed=0, x=0):
        if x == 1:
            time.sleep(60)
        return {"x": x}

    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1]))
    started = time.monotonic()
    outcome = run_sweep(spec, tmp_path, jobs=2, timeout=0.5,
                        registry={"fake": fake_module(run)})
    assert time.monotonic() - started < 30
    assert outcome.failed == ["fake-x=1--s1"]
    assert outcome.ok == ["fake-x=2--s1"]
    error = ResultStore(tmp_path).read_artifact("fake-x=1--s1")["error"]
    assert error["kind"] == "timeout"


@needs_fork
@pytest.mark.parametrize("kind", ["crash", "timeout"])
def test_forced_rerun_that_writes_nothing_is_not_ok(tmp_path, kind):
    """A worker that dies or times out under --force leaves the previous
    invocation's ``ok`` artifact behind no longer."""
    spec = SweepSpec.from_json(dict(name="t", experiment="fake", seeds=[1]))
    first = run_sweep(spec, tmp_path, jobs=1,
                      registry={"fake": fake_module(lambda seed=0: {})})
    assert first.ok == ["fake--s1"]

    def run(seed=0):
        if kind == "crash":
            import os
            os._exit(3)
        time.sleep(30)

    outcome = run_sweep(spec, tmp_path, jobs=2, force=True,
                        timeout=0.5 if kind == "timeout" else None,
                        registry={"fake": fake_module(run)})
    assert (outcome.ok, outcome.failed) == ([], ["fake--s1"])
    error = ResultStore(tmp_path).read_artifact("fake--s1")["error"]
    assert error["kind"] == kind


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def test_progress_lines_and_eta(capsys):
    progress = SweepProgress(4, workers=2)
    progress.skipped(1)
    progress.finished("a--s1", "ok", 2.0)
    progress.finished("b--s1", "error (timeout)", 4.0)
    err = capsys.readouterr().err
    assert "[1/4] 1 run(s) already complete" in err
    assert "[2/4] a--s1: ok (2.0s) — eta" in err
    assert "[3/4] b--s1: error (timeout)" in err
    summary = progress.summary(skipped=1)
    assert "1 failed" in summary and "1 skipped" in summary


def test_run_sweep_rejects_bad_jobs(tmp_path):
    spec = SweepSpec.from_json(dict(name="t", experiment="fake", seeds=[1]))
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(spec, tmp_path, jobs=0)


# ----------------------------------------------------------------------
# Default worker count
# ----------------------------------------------------------------------
def test_default_jobs_serial_on_one_core(monkeypatch):
    monkeypatch.setattr(executor, "_available_cpus", lambda: 1)
    assert default_jobs(8) == 1


def test_default_jobs_capped_by_cpus_and_jobs(monkeypatch):
    monkeypatch.setattr(executor, "_available_cpus", lambda: 4)
    assert default_jobs(16) == 4   # cpu-bound
    assert default_jobs(2) == 2    # never more workers than jobs
    assert default_jobs(1) == 1


def test_run_sweep_defaults_jobs_when_none(tmp_path, monkeypatch):
    calls = []

    def spy(n_jobs):
        calls.append(n_jobs)
        return 1

    monkeypatch.setattr(executor, "default_jobs", spy)

    def run(seed=0, x=0):
        return {"x": x}

    spec = SweepSpec.from_json(dict(name="t", experiment="fake",
                                    grid={"x": [1, 2]}, seeds=[1]))
    outcome = run_sweep(spec, tmp_path, jobs=None,
                        registry={"fake": fake_module(run)})
    assert calls == [2]
    assert sorted(outcome.ok) == ["fake-x=1--s1", "fake-x=2--s1"]
