"""The `repro lint` CLI verb: exit codes and formats — and the acceptance
check that the repo's own tree is clean."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def violation_tree(tmp_path, monkeypatch):
    """A scratch repo with one DET002 violation, cwd switched into it."""
    target = tmp_path / "src/repro/sim/fixture.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\nt = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_repo_tree_is_clean(monkeypatch, capsys):
    """Acceptance: `repro lint` exits 0 on the repaired tree, every
    package exemption still matches a file, and the run writes nothing."""
    monkeypatch.chdir(REPO_ROOT)
    before = sorted(os.listdir(REPO_ROOT))
    assert main(["lint", "--check-exemptions"]) == 0
    assert "clean" in capsys.readouterr().out
    assert sorted(os.listdir(REPO_ROOT)) == before


def test_violation_fails_with_location(violation_tree, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/sim/fixture.py" in out
    assert "DET002" in out


def test_json_format(violation_tree, capsys):
    assert main(["lint", "src", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["summary"]["new"] == 1
    [finding] = doc["findings"]
    assert finding["code"] == "DET002"
    assert finding["path"] == "src/repro/sim/fixture.py"
    assert finding["line"] == 2


def test_select_narrows_rules(violation_tree, capsys):
    assert main(["lint", "src", "--select", "DET001"]) == 0
    assert main(["lint", "src", "--select", "DET002"]) == 1


def test_unknown_select_code_is_usage_error(violation_tree, capsys):
    assert main(["lint", "src", "--select", "NOPE99"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_is_usage_error(violation_tree, capsys):
    assert main(["lint", "does-not-exist"]) == 2


def test_all_flag_skips_missing_tools(violation_tree, capsys):
    # ruff/mypy may or may not exist in this environment; either way the
    # command must not crash and detlint's own verdict must still decide.
    status = main(["lint", "src", "--all"])
    captured = capsys.readouterr()
    assert status in (0, 1)
    assert "[ruff]" in captured.err
    assert "[mypy]" in captured.err


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
