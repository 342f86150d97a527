"""HL001 — the frozen-lowering mutation detector.

Every engine on a netlist reads the cached ``CompiledNetlist``'s lists
themselves, not copies, so a caller that writes one of them silently
corrupts every later ``simulate()`` on the netlist.  Nothing guards
those lists at run time; this rule is the static guard: *no code
outside the sanctioned seams may store into a lowering list, delete
from it, mutate it in place, or rebind a lowering field*.

Sanctioned seams:

* ``src/repro/core/compiled.py`` — the owner of the lowering builds
  these lists;
* ``src/repro/faults/inject.py`` — fault injection patches the lowering
  with restore-in-``finally``;
* any function named ``patched_lowering`` (the test fixture seam).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.findings import Finding, Severity

from ..astutil import const_str
from ..engine import Project, SourceFile
from ..registry import rule

#: The list fields of ``CompiledNetlist``: the lowering every engine shares.
LOWERING_FIELDS: Set[str] = {
    "vt_fraction", "net_load", "net_is_pi", "net_is_po", "net_driver",
    "net_constant", "fanout_offsets", "fanout_targets",
    "gate_input_offsets", "gate_output_net", "gate_tables",
    "input_gate", "input_pin", "input_net", "arc_rise", "arc_fall",
}

#: list methods that mutate in place.
MUTATING_METHODS: Set[str] = {
    "append", "extend", "insert", "pop", "remove", "clear", "reverse",
    "sort",
}

#: Files allowed to touch the lowering lists (path suffixes).
SANCTIONED_FILES = ("core/compiled.py", "faults/inject.py")

#: Functions allowed to touch them wherever they live.
SANCTIONED_FUNCTIONS = {"patched_lowering"}


class _Scanner(ast.NodeVisitor):
    def __init__(self, source: SourceFile):
        self.source = source
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []
        #: local names aliased to a lowering field, per function scope.
        self._alias_stack: list[dict[str, str]] = [{}]

    # -- scope tracking ------------------------------------------------

    def _enter_function(self, node: ast.AST) -> None:
        self._function_stack.append(getattr(node, "name", "<lambda>"))
        self._alias_stack.append({})
        self.generic_visit(node)
        self._alias_stack.pop()
        self._function_stack.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _sanctioned(self) -> bool:
        return bool(SANCTIONED_FUNCTIONS & set(self._function_stack))

    def _field_name(self, node: ast.AST) -> Optional[str]:
        """The lowering field ``node`` denotes: ``<expr>.arc_rise`` or
        a local alias of one."""
        if isinstance(node, ast.Attribute) and node.attr in LOWERING_FIELDS:
            return node.attr
        if isinstance(node, ast.Name):
            return self._alias_stack[-1].get(node.id)
        return None

    def _field_in_chain(self, node: ast.AST) -> Optional[str]:
        """Field name anywhere along a subscript chain.

        Catches ``compiled.arc_rise[i]``, ``compiled.gate_tables[g][i]``
        and aliased forms alike.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
            name = self._field_name(node)
            if name is not None:
                return name
        return None

    def _flag(self, node: ast.AST, name: str, what: str) -> None:
        if self._sanctioned():
            return
        self.findings.append(Finding(
            severity=Severity.ERROR,
            rule="HL001",
            message="%s of frozen lowering field %r outside the "
            "sanctioned seams (patched_lowering / faults.inject)"
            % (what, name),
            file=self.source.rel,
            line=node.lineno,
        ))

    # -- stores and deletes ----------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, "subscript store into")
            # Track aliases: ``arcs = compiled.arc_rise``.
            if isinstance(target, ast.Name):
                aliased = self._field_name(node.value)
                if aliased is not None:
                    self._alias_stack[-1][target.id] = aliased
                else:
                    self._alias_stack[-1].pop(target.id, None)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        # ``arcs += [...]`` extends an aliased list in place.
        aliased = (
            self._field_name(target) if isinstance(target, ast.Name) else None
        )
        if aliased is not None:
            self._flag(target, aliased, "in-place augmented assignment")
        else:
            self._check_target(target, "subscript store into")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, "del")
        self.generic_visit(node)

    def _check_target(self, target: ast.AST, what: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, what)
            return
        if isinstance(target, ast.Subscript):
            name = self._field_in_chain(target)
            if name is not None:
                self._flag(target, name, what)
            return
        if (
            isinstance(target, ast.Attribute)
            and target.attr in LOWERING_FIELDS
            and (
                # Rebinding a lowering field on some object (not a local).
                not isinstance(target.value, ast.Name)
                or target.value.id not in ("self",)
            )
        ):
            self._flag(target, target.attr, "attribute rebinding or del")

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and len(node.args) >= 2
        ):
            name = const_str(node.args[1])
            if name in LOWERING_FIELDS:
                self._flag(node, name, "setattr() store into")
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            name = self._field_name(func.value)
            if name is None and isinstance(func.value, ast.Subscript):
                name = self._field_in_chain(func.value)
            if name is not None:
                self._flag(node, name, ".%s() in-place mutation" % func.attr)
        self.generic_visit(node)


@rule(
    id="HL001",
    name="frozen-lowering-mutation",
    invariant="No store, del, setattr or in-place list mutation touches "
    "a CompiledNetlist lowering list outside patched_lowering or "
    "faults.inject.",
    rationale="Every engine shares the cached lowering's lists, so one "
    "caller mutation silently corrupts all later simulate() results on "
    "the netlist.",
)
def check(project: Project) -> Iterator[Finding]:
    for source in project.files:
        if source.rel.endswith(SANCTIONED_FILES):
            continue
        scanner = _Scanner(source)
        scanner.visit(source.tree)
        yield from scanner.findings
