"""``python -m repro.lint`` — lint the repro tree.

Exit codes: 0 clean, 1 findings, 2 broken configuration (a config
error must fail loudly, never read as a clean pass).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .defaults import REPRO_CONFIG
from .model import LintConfigError
from .runner import format_findings, run_lint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based architecture & concurrency invariant checker",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="package directory to lint (default: the installed repro tree)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule ids to run (default: all), e.g. L1,L4",
    )
    args = parser.parse_args(argv)

    select = [r.strip() for r in args.select.split(",") if r.strip()] or None
    try:
        findings = run_lint(args.root, REPRO_CONFIG, select=select)
    except LintConfigError as exc:
        print(f"repro.lint: configuration error: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, args.fmt))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
