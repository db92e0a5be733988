"""Tests for the command-line interface."""

import argparse
import inspect
import json

import pytest

from repro.cli import _kwargs_for, main
from repro.experiments import ALL_EXPERIMENTS


def cli_args(seed=None, scale=None, duration=None):
    return argparse.Namespace(seed=seed, scale=scale, duration=duration)


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3", "fig6", "topologies", "ablation", "fig8", "design",
                 "faults", "attacks"):
        assert name in out


def test_run_unknown_experiment_fails(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_fig3_small(capsys):
    assert main(["run", "fig3", "--scale", "0.02", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "gnutella" in out
    assert "finished in" in out


def test_scale_flag_maps_to_trace_scale(capsys):
    # fig6 exposes trace_scale rather than scale; the CLI must map it.
    assert main([
        "run", "fig6", "--scale", "0.012", "--duration", "400", "--seed", "5",
    ]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_fuzz_is_not_a_verb(capsys):
    # the overlay is fuzzed by tests/test_overlay_fuzz.py, not from the CLI
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seed", "6"])
    assert exc.value.code == 2
    assert "invalid choice: 'fuzz'" in capsys.readouterr().err


def test_lint_is_not_a_verb(capsys):
    # determinism is checked by tests/test_determinism_regressions.py
    with pytest.raises(SystemExit) as exc:
        main(["lint", "."])
    assert exc.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err


def test_experiment_exception_is_one_clean_line(capsys, monkeypatch):
    def explode(seed=42):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(ALL_EXPERIMENTS["fig3"], "run", explode)
    assert main(["run", "fig3"]) == 1
    captured = capsys.readouterr()
    # One line on stderr, no traceback leaking to the user.
    assert captured.err.strip().splitlines() == [
        "error: fig3: RuntimeError: deliberate failure"]
    assert "Traceback" not in captured.err
    assert "finished in" not in captured.out


def test_cli_elapsed_uses_perf_counter(monkeypatch, capsys):
    """Wall-clock regression: `run` timing must come from perf_counter."""
    import time as time_module

    import repro.cli as cli
    from repro.experiments import ALL_EXPERIMENTS

    calls = {"perf": 0}
    real_perf = time_module.perf_counter

    def counting_perf():
        calls["perf"] += 1
        return real_perf()

    monkeypatch.setattr(cli.time, "perf_counter", counting_perf)
    monkeypatch.setattr(
        cli.time, "time",
        lambda: pytest.fail("cli elapsed timing must not read time.time()"))
    monkeypatch.setitem(
        ALL_EXPERIMENTS, "fake",
        type("M", (), {
            "run": staticmethod(lambda: {"ok": 1}),
            "format_report": staticmethod(lambda r: "fake report"),
            "__doc__": "fake",
        }),
    )
    assert main(["run", "fake"]) == 0
    assert calls["perf"] >= 2
    assert "finished in" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["live", "--nodes", "0"],
    ["live", "--lookups", "-1"],
    ["sweep", "SPEC", "--jobs", "0", "--out", "OUT"],
    ["serve", "--seed", "localhost:9000"],
    ["serve", "--seed", "127.0.0.1:0"],
    ["serve", "--id", "zz"],
    ["serve", "--port", "70000"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, capsys, monkeypatch):
    """Caught before any socket is bound or any run starts."""
    import repro.runtime.transport

    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was bound")

    monkeypatch.setattr(repro.runtime.transport.UdpTransport, "open", no_socket)
    paths = {"SPEC": write_spec(tmp_path, dict(name="x", experiment="fig3", seeds=[1])),
             "OUT": str(tmp_path / "out")}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: "), err


# ----------------------------------------------------------------------
# _kwargs_for: mapping shared flags onto run() signatures
# ----------------------------------------------------------------------
def fake_experiment(run):
    return type("M", (), {"run": staticmethod(run)})


def test_kwargs_for_prefers_trace_scale():
    module = fake_experiment(
        lambda seed=1, trace_scale=0.1, scale=0.2, duration=10.0: None)
    kwargs = _kwargs_for(module, cli_args(seed=5, scale=0.3, duration=60.0))
    assert kwargs == {"seed": 5, "trace_scale": 0.3, "duration": 60.0}


def test_kwargs_for_falls_back_to_scale():
    module = fake_experiment(lambda seed=1, scale=0.2: None)
    assert _kwargs_for(module, cli_args(scale=0.3)) == {"scale": 0.3}


def test_kwargs_for_omits_unsupported_and_unset_flags():
    module = fake_experiment(lambda n_nodes=10: None)
    assert _kwargs_for(module, cli_args(seed=5, scale=0.3, duration=9.0)) == {}
    module = fake_experiment(lambda seed=1, scale=0.2, duration=1.0: None)
    assert _kwargs_for(module, cli_args()) == {}


def test_kwargs_for_real_experiments_accept_mapping():
    # Every registered experiment must accept what the CLI would pass it.
    args = cli_args(seed=3, scale=0.05, duration=600.0)
    for name, module in ALL_EXPERIMENTS.items():
        kwargs = _kwargs_for(module, args)
        assert kwargs.get("seed") == 3, name
        signature = inspect.signature(module.run)
        for key in kwargs:
            assert key in signature.parameters, (name, key)


# ----------------------------------------------------------------------
# sweep / report verbs
# ----------------------------------------------------------------------
def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_and_report_end_to_end(tmp_path, capsys):
    spec = write_spec(tmp_path, dict(
        name="cli-smoke", experiment="fig3",
        base={"scale": 0.01, "microsoft_scale": 0.002},
        grid={}, seeds=[1, 2],
    ))
    out = str(tmp_path / "out")
    assert main(["sweep", spec, "--jobs", "1", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "[2/2]" in err and "sweep finished: 2/2 ok" in err
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert len(list((tmp_path / "out" / "runs").glob("*.json"))) == 2

    # Resume: nothing left to do.
    assert main(["sweep", spec, "--jobs", "1", "--out", out]) == 0
    assert "skipped (resume)" in capsys.readouterr().err

    assert main(["report", out]) == 0
    report = capsys.readouterr().out
    assert "2 ok, 0 failed" in report
    assert "summary.gnutella.mean" in report


def test_sweep_bad_spec_and_unknown_experiment(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "cannot read spec" in capsys.readouterr().err

    spec = write_spec(tmp_path, dict(name="x", experiment="bogus",
                                     seeds=[1]))
    assert main(["sweep", spec, "--out", str(tmp_path / "o")]) == 2
    assert "unknown experiment 'bogus'" in capsys.readouterr().err


def test_report_on_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "not a sweep directory" in capsys.readouterr().err
