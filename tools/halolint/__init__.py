"""halolint — the project-invariant static analyzer.

This package checks the invariants the type system cannot see and the
dynamic test corpus only catches when it happens to execute the
violating path: frozen-lowering mutation (HL001), lock discipline on
shared attributes (HL002), metrics registration/label hygiene (HL003),
protocol-frame consistency between client and server (HL004) and the
public exception contract (HL005).

It is stdlib-only (``ast`` + ``symtable``-level reasoning written by
hand) and reports through the same :class:`repro.analysis.findings`
model as the circuit checks, so ``python -m tools.halolint`` shares the
exit-code contract of ``repro lint``: errors → 2, clean → 0.  Every
finding gates; there is no baseline that could grandfather one.

Layout::

    engine.py     project scanning (files, ASTs, comment annotations)
    registry.py   the rule registry (@rule) the doc drift guard reads
    cli.py        ``python -m tools.halolint`` front end
    rules/        one module per HL00x rule
"""

from __future__ import annotations

import sys
from pathlib import Path

# The analyzer reuses repro.analysis.findings; when invoked from a repo
# checkout without PYTHONPATH=src (e.g. ``python -m tools.halolint``
# straight from the shell), wire the source tree up ourselves.
_SRC = Path(__file__).resolve().parent.parent.parent / "src"
try:  # pragma: no cover - import side effect
    import repro.analysis.findings  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from .engine import LintResult, Project, run  # noqa: E402,F401
from .registry import RULES, Rule, rule  # noqa: E402,F401

__all__ = [
    "LintResult",
    "Project",
    "RULES",
    "Rule",
    "rule",
    "run",
]
