"""Orchestration: scan a tree and run every rule over each file.

This is what the ``repro lint`` CLI verb calls.  ``lint_paths`` is pure
(returns a :class:`LintReport`); exit-code policy lives in the CLI.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Importing the rule modules registers every rule with the registry.
from repro.analysis import rules_determinism  # noqa: F401
from repro.analysis import rules_simulation  # noqa: F401
from repro.analysis.core import (
    EXEMPTIONS,
    REGISTRY,
    AnalysisError,
    FileContext,
    Finding,
    Rule,
    check_file,
)

#: directories never worth scanning
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build",
              "dist", ".mypy_cache", ".ruff_cache"}


def collect_files(paths: Sequence, root: Optional[Path] = None) -> List[Tuple[str, Path]]:
    """Expand files/directories into sorted (rel_path, abs_path) pairs.

    ``rel_path`` is posix-style relative to ``root`` (default: the current
    working directory) when possible, else the path as given — it is the
    identity used in findings.
    """
    root = Path(root) if root is not None else Path.cwd()
    out: Dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise AnalysisError(f"no such file or directory: {path}")
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            try:
                rel = resolved.relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = candidate.as_posix()
            out[rel] = resolved
    return sorted(out.items())


@dataclass
class LintReport:
    """Outcome of one detlint run, before exit-code policy."""

    findings: List[Finding] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.findings)


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    if not select:
        return REGISTRY.rules()
    known = REGISTRY.codes()
    unknown = sorted(set(select) - set(known))
    if unknown:
        raise AnalysisError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}")
    return [rule for rule in REGISTRY.rules() if rule.code in select]


def lint_paths(paths: Sequence, root: Optional[Path] = None,
               select: Optional[Sequence[str]] = None, *,
               validate_exemptions: bool = False) -> LintReport:
    """Run every registered rule over each file under ``paths``.

    ``select`` narrows to specific rule codes (used by the self-tests and
    by ``repro lint --select``); a file that does not parse is reported
    as ``LINT001`` whatever is selected, since no rule ran over it.
    ``validate_exemptions`` additionally asserts that every registered
    package exemption matches at least one scanned file.
    """
    rules = _selected_rules(select)
    files = collect_files(paths, root=root)
    if validate_exemptions:
        EXEMPTIONS.validate([rel for rel, _ in files])

    report = LintReport()
    for rel_path, abs_path in files:
        try:
            source = abs_path.read_bytes().decode("utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {rel_path}: {exc}") from exc
        try:
            ctx = FileContext.parse(rel_path, source)
        except SyntaxError as exc:
            report.findings.append(Finding(
                code="LINT001", severity="error", path=rel_path,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}"))
        else:
            report.findings.extend(check_file(ctx, rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report


# ----------------------------------------------------------------------
# `repro lint --all`: one entry point for every static check we run in CI
# ----------------------------------------------------------------------

@dataclass
class ToolOutcome:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    detail: str = ""


def _run_external(name: str, args: List[str]) -> ToolOutcome:
    """Run an optional external tool, skipping cleanly if absent."""
    try:
        proc = subprocess.run([sys.executable, "-m", name, *args],
                              capture_output=True, text=True)
    except OSError as exc:  # pragma: no cover - exotic interpreter issues
        return ToolOutcome(name, "skipped", f"cannot launch: {exc}")
    if proc.returncode == 0:
        return ToolOutcome(name, "ok")
    # "No module named X" => the tool is not installed in this environment;
    # CI installs it, local runs degrade to detlint-only.
    if f"No module named {name}" in (proc.stderr or ""):
        return ToolOutcome(name, "skipped", "not installed")
    tail = "\n".join(
        ((proc.stdout or "") + (proc.stderr or "")).strip().splitlines()[-20:]
    )
    return ToolOutcome(name, "failed", tail)


def run_all_tools() -> List[ToolOutcome]:
    """ruff + mypy, for `repro lint --all` (detlint itself runs in-process).

    mypy takes its targets from ``pyproject.toml [tool.mypy] files``, the
    same list the CI ``mypy`` job uses.
    """
    return [_run_external("ruff", ["check", "."]),
            _run_external("mypy", [])]
