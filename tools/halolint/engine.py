"""Project scanning and the lint driver.

A :class:`Project` is the parsed form of one source tree: every Python
file under the scan roots as a :class:`SourceFile` (text, lines, AST and
the ``# halolint:`` comment annotations), plus access to the docs the
metrics rule cross-checks.  Rules never touch the filesystem — they read
the project, which is what makes the teeth tests cheap: seed a temporary
tree, scan it, assert the findings.

Comment grammar (one directive per comment)::

    # halolint: allow(HL001)           suppress findings on this line
    # halolint: allow(HL001, HL002)    ... several rules
    # halolint: guarded-by(_lock)      the self-attribute assigned on
                                       this line is shared state guarded
                                       by ``self._lock`` (rule HL002)
    # halolint: locked(_lock)          the function defined on this line
                                       is only called with ``self._lock``
                                       held (or on the owning thread)
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding, FindingReport, Severity

from .registry import iter_rules

_DIRECTIVE = re.compile(
    r"#\s*halolint:\s*(allow|guarded-by|locked)\(\s*([^)]*?)\s*\)"
)


@dataclasses.dataclass
class SourceFile:
    """One parsed Python file of the scanned tree."""

    path: Path                     #: absolute path
    rel: str                       #: posix path relative to the root
    text: str
    tree: ast.Module
    #: line → rule ids allowed on that line (``allow`` directives).
    allows: Dict[int, Set[str]]
    #: line → lock name (``guarded-by`` directives).
    guarded_by: Dict[int, str]
    #: line → lock name (``locked`` directives).
    locked: Dict[int, str]

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    def allowed(self, rule_id: str, line: int) -> bool:
        return rule_id in self.allows.get(line, set())


def _parse_directives(
    text: str,
) -> tuple[Dict[int, Set[str]], Dict[int, str], Dict[int, str]]:
    allows: Dict[int, Set[str]] = {}
    guarded: Dict[int, str] = {}
    locked: Dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "halolint" not in line:
            continue
        for kind, payload in _DIRECTIVE.findall(line):
            if kind == "allow":
                allows.setdefault(lineno, set()).update(
                    token.strip() for token in payload.split(",")
                    if token.strip()
                )
            elif kind == "guarded-by":
                guarded[lineno] = payload.strip()
            else:
                locked[lineno] = payload.strip()
    return allows, guarded, locked


class Project:
    """The parsed source tree one lint run analyzes.

    Args:
        root: project root; finding paths and doc lookups are relative
            to it.
        paths: files or directories (absolute, or relative to ``root``)
            to scan; defaults to ``src/repro`` under the root.
    """

    def __init__(
        self, root: Path, paths: Optional[Sequence[Path]] = None
    ):
        self.root = Path(root).resolve()
        if paths is None:
            paths = [self.root / "src" / "repro"]
        self.files: List[SourceFile] = []
        self.broken: List[Finding] = []
        for path in self._expand(paths):
            self._load(path)

    def _expand(self, paths: Iterable[Path]) -> List[Path]:
        expanded: List[Path] = []
        for path in paths:
            path = Path(path)
            if not path.is_absolute():
                path = self.root / path
            if path.is_dir():
                expanded.extend(sorted(
                    candidate for candidate in path.rglob("*.py")
                    if "__pycache__" not in candidate.parts
                ))
            else:
                expanded.append(path)
        return expanded

    def _load(self, path: Path) -> None:
        text = path.read_text(encoding="utf-8")
        try:
            rel = path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as error:
            self.broken.append(Finding(
                severity=Severity.ERROR,
                rule="HL000",
                message="file does not parse: %s" % error.msg,
                file=rel,
                line=error.lineno,
            ))
            return
        allows, guarded, locked = _parse_directives(text)
        self.files.append(SourceFile(
            path=path, rel=rel, text=text, tree=tree,
            allows=allows, guarded_by=guarded, locked=locked,
        ))

    # -- lookups rules use ---------------------------------------------

    def files_matching(self, *suffixes: str) -> List[SourceFile]:
        """Files whose project-relative path ends with any ``suffix``."""
        return [
            source for source in self.files
            if any(source.rel.endswith(suffix) for suffix in suffixes)
        ]

    def read_doc(self, rel: str) -> Optional[str]:
        """A doc file's text, or None when the tree does not carry it."""
        path = self.root / rel
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


@dataclasses.dataclass
class LintResult:
    """Everything one lint run produced; every finding in ``report``
    gates the run."""

    report: FindingReport
    rules_run: List[str]
    files_scanned: int

    @property
    def ok(self) -> bool:
        return self.report.ok

    def exit_code(self) -> int:
        return self.report.exit_code()

    def to_dict(self) -> Dict[str, object]:
        payload = self.report.to_dict()
        payload["rules"] = list(self.rules_run)
        payload["files_scanned"] = self.files_scanned
        return payload


def run(
    root: Path,
    paths: Optional[Sequence[Path]] = None,
    disabled: Iterable[str] = (),
) -> LintResult:
    """Scan ``paths`` under ``root`` and run every registered rule."""
    project = Project(root, paths=paths)
    findings: List[Finding] = list(project.broken)
    rules_run: List[str] = []
    for lint_rule in iter_rules(disabled):
        rules_run.append(lint_rule.id)
        for finding in lint_rule.check(project):
            source = next(
                (f for f in project.files if f.rel == finding.file), None
            )
            if (
                source is not None
                and finding.line is not None
                and source.allowed(finding.rule, finding.line)
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.file or "", f.line or 0, f.rule))
    return LintResult(
        report=FindingReport(findings=findings),
        rules_run=rules_run,
        files_scanned=len(project.files),
    )
