"""Run the rules over a tree and format the findings.

``run_lint`` is the library entry (used by ``tests/test_lint.py`` and
``__main__``); the text and JSON renderers are kept here so the CLI
stays a thin argument parser.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence

from .model import Finding, LintConfig
from .rules import run_rules
from .sourcemodel import SourceIndex

__all__ = ["format_findings", "run_lint"]


def run_lint(
    root: Path,
    config: LintConfig,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint the package rooted at ``root``; return every finding."""
    return run_rules(SourceIndex(root), config, select=select)


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {
                "findings": [f.as_json() for f in findings],
                "count": len(findings),
            },
            indent=2,
            sort_keys=True,
        )
    if not findings:
        return "repro.lint: no findings"
    lines = [f.render() for f in findings]
    lines.append(
        f"repro.lint: {len(findings)} finding{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)
