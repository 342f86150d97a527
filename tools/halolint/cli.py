"""Command-line front end: ``python -m tools.halolint``.

Exit codes follow the shared finding contract: 0 when there are no
findings (or only warnings), 2 when an error finding gates the run.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import LintResult, run
from .registry import RULES, load_rules

#: tools/halolint/cli.py → the repository root.
REPO_ROOT = Path(__file__).resolve().parents[2]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.halolint",
        description="HALOTIS project-invariant static analyzer",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files/directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="project root for relative paths and doc lookups",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="skip a rule id (repeatable), e.g. --disable HL005",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _print_human(result: LintResult) -> None:
    for finding in result.report.findings:
        print(str(finding))
    tail = "%d file(s), %d rule(s): %d finding(s)" % (
        result.files_scanned,
        len(result.rules_run),
        len(result.report.findings),
    )
    print(tail)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    load_rules()

    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            print("%s %s\n    %s" % (rule.id, rule.name, rule.invariant))
        return 0

    paths: Optional[List[Path]] = list(args.paths) or None
    result = run(args.root, paths=paths, disabled=args.disable)

    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _print_human(result)
    return result.exit_code()
