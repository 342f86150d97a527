"""HL003 — metrics discipline.

Three invariants over every ``Counter``/``Gauge``/``Histogram``
registration and update site:

1. **Literal registration.**  Metric names and label tuples are string
   literals with the project prefix (``halotis_``) — a computed name
   defeats both the doc drift guard and grep.
2. **Documented names.**  Every registered name appears in
   ``docs/observability.md`` (the metric catalogue the PR 9 drift guard
   protects); skipped when the scanned tree carries no such doc.
3. **Bounded label values.**  Label keyword arguments at
   ``inc``/``dec``/``set``/``observe``/``observe_many`` call sites must
   be statically bounded expressions — literals, names, attribute reads or
   conditionals over those.  String *construction* (f-strings, ``str()``
   / ``format()`` calls, concatenation, ``%``, subscripts of request
   data) is how unbounded identity leaks into a label and blows series
   cardinality; bind the value to a clamped local first.  A ``**labels``
   expansion is accepted when ``labels`` is a local constant-keyed dict
   literal with bounded values — still auditable at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.findings import Finding, Severity

from ..astutil import const_str
from ..engine import Project, SourceFile
from ..registry import rule

#: Registration methods on a registry and their update counterparts.
REGISTRATION_METHODS = {"counter", "gauge", "histogram"}
UPDATE_METHODS = {"inc", "dec", "set", "observe", "observe_many"}

#: Required prefix for every metric family this project registers.
NAME_PREFIX = "halotis_"

#: The metric catalogue the doc sub-check reads.
DOC_PATH = "docs/observability.md"


def _is_bounded(node: ast.AST) -> bool:
    """True when a label-value expression is statically bounded."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Name, ast.Attribute)):
        return True
    if isinstance(node, ast.IfExp):
        return _is_bounded(node.body) and _is_bounded(node.orelse)
    if isinstance(node, ast.BoolOp):
        return all(_is_bounded(value) for value in node.values)
    return False


def _literal_labels(node: ast.AST) -> bool:
    """True when a label-names argument is a literal tuple/list of str."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(const_str(elt) is not None for elt in node.elts)
    return False


def _local_dict_values(
    func: Optional[ast.AST], var: str
) -> Optional[List[ast.AST]]:
    """Values of a ``var = {"k": v, ...}`` literal assigned in ``func``.

    None when ``var`` is not bound to a constant-keyed dict literal in
    this function — reassignments through non-literals disqualify it.
    """
    if func is None:
        return None
    values: Optional[List[ast.AST]] = None
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if not any(
            isinstance(t, ast.Name) and t.id == var for t in targets
        ):
            continue
        if isinstance(node.value, ast.Dict) and all(
            key is not None and const_str(key) is not None
            for key in node.value.keys
        ):
            values = list(node.value.values)
        else:
            return None
    return values


class _Scanner(ast.NodeVisitor):
    def __init__(self, source: SourceFile, doc_text: Optional[str]):
        self.source = source
        self.doc_text = doc_text
        self.findings: List[Finding] = []
        self._function_stack: List[ast.AST] = []

    def _enter_function(self, node: ast.AST) -> None:
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            severity=Severity.ERROR,
            rule="HL003",
            message=message,
            file=self.source.rel,
            line=node.lineno,
        ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in REGISTRATION_METHODS and len(node.args) >= 2:
                self._check_registration(node)
            elif func.attr in UPDATE_METHODS:
                self._check_update(node)
        self.generic_visit(node)

    def _check_registration(self, node: ast.Call) -> None:
        name = const_str(node.args[0])
        if name is None:
            self._flag(
                node,
                "metric name must be a string literal (computed names "
                "defeat the observability-doc drift guard)",
            )
        else:
            if not name.startswith(NAME_PREFIX):
                self._flag(
                    node,
                    "metric name %r does not carry the project prefix %r"
                    % (name, NAME_PREFIX),
                )
            if self.doc_text is not None and name not in self.doc_text:
                self._flag(
                    node,
                    "metric %r is not documented in %s" % (name, DOC_PATH),
                )
        label_args = list(node.args[2:3]) + [
            keyword.value for keyword in node.keywords
            if keyword.arg in ("label_names", "labels")
        ]
        for labels in label_args:
            if not _literal_labels(labels):
                self._flag(
                    node,
                    "metric label names must be a literal tuple/list of "
                    "string literals",
                )

    def _check_update(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is None:
                if self._starred_is_bounded(keyword.value):
                    continue
                self._flag(
                    node,
                    "label values must not arrive via an opaque "
                    "**expression — expand a local literal dict with "
                    "bounded values so the label set is auditable at "
                    "the call site",
                )
            elif not _is_bounded(keyword.value):
                self._flag(
                    node,
                    "label value for %r is built dynamically; bind it to "
                    "a statically bounded local (closed set / clamped) "
                    "first — unbounded label values blow series "
                    "cardinality" % keyword.arg,
                )

    def _starred_is_bounded(self, value: ast.AST) -> bool:
        """A ``**labels`` expansion is fine when ``labels`` is a local
        constant-keyed dict literal whose values are all bounded."""
        if not isinstance(value, ast.Name):
            return False
        func = self._function_stack[-1] if self._function_stack else None
        values = _local_dict_values(func, value.id)
        if values is None:
            return False
        return all(_is_bounded(entry) for entry in values)


@rule(
    id="HL003",
    name="metrics-discipline",
    invariant="Metric registrations use literal halotis_-prefixed names "
    "and literal label tuples, every name is documented in "
    "docs/observability.md, and label values at update sites are "
    "statically bounded expressions.",
    rationale="Metric-name drift was previously guarded only by a "
    "regex test (PR 9), and one dynamically built label value is all "
    "it takes for client-controlled identity to leak into the series "
    "space past the cardinality guard.",
)
def check(project: Project) -> Iterator[Finding]:
    doc_text = project.read_doc(DOC_PATH)
    for source in project.files:
        # The registry internals manipulate label tuples generically;
        # the discipline targets the instrumented layers.
        if source.rel.endswith(("obs/registry.py", "obs/prometheus.py")):
            continue
        scanner = _Scanner(source, doc_text)
        scanner.visit(source.tree)
        yield from scanner.findings
