"""Finding reporters: human text and machine JSON.

The JSON shape is the CI interface — stable keys, findings sorted by
(path, line, col, code) — so workflow steps can assert on it without
scraping text.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from repro.analysis.core import Finding

JSON_SCHEMA = 1


def _sorted(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def render_human(findings: Sequence[Finding]) -> str:
    """Grouped-by-file report with a one-line verdict at the end."""
    lines: List[str] = []
    current = None
    for finding in _sorted(findings):
        if finding.path != current:
            current = finding.path
            lines.append(f"{finding.path}:")
        lines.append(f"  {finding.line}:{finding.col + 1}  "
                     f"{finding.code} [{finding.severity}]  {finding.message}")
        if finding.line_text.strip():
            lines.append(f"      | {finding.line_text.strip()}")
    if lines:
        lines.append("")
    lines.append(summarize(findings))
    return "\n".join(lines)


def summarize(findings: Sequence[Finding]) -> str:
    if not findings:
        return "clean: no findings"
    by_code = Counter(f.code for f in findings)
    detail = ", ".join(f"{code} x{count}"
                       for code, count in sorted(by_code.items()))
    return f"{len(findings)} finding(s) ({detail})"


def render_json(findings: Sequence[Finding]) -> str:
    doc = {
        "schema": JSON_SCHEMA,
        "findings": [
            {
                "code": f.code,
                "severity": f.severity,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "line_text": f.line_text.strip(),
            }
            for f in _sorted(findings)
        ],
        "summary": {
            "new": len(findings),
            "by_code": dict(sorted(
                Counter(f.code for f in findings).items())),
            "by_severity": dict(sorted(
                Counter(f.severity for f in findings).items())),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
