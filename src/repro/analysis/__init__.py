"""detlint: determinism & simulation-correctness static analysis.

See DESIGN.md §9 for the contract each rule encodes.  Entry points:

* ``python -m repro.cli lint`` — the CLI verb (human/JSON output)
* :func:`repro.analysis.runner.lint_paths` — the library API
"""

from repro.analysis.core import (
    EXEMPTIONS,
    REGISTRY,
    AnalysisError,
    FileContext,
    Finding,
    PackageExemption,
    Rule,
    RuleRegistry,
    check_file,
    register,
)
from repro.analysis.reporters import render_human, render_json
from repro.analysis.runner import (
    LintReport,
    ToolOutcome,
    collect_files,
    lint_paths,
    run_all_tools,
)
