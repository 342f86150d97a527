"""Teeth tests for HL001 — frozen-lowering mutation detection."""

from __future__ import annotations

import pytest
from conftest import findings_for

MOD = "src/repro/core/consumer.py"


def test_subscript_store_into_export_attribute_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5
    """})
    (finding,) = findings_for(result, "HL001")
    assert finding.file == MOD
    assert finding.line == 3
    assert "arc_rise" in finding.message


def test_aliased_export_is_tracked_within_the_function(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            tables = compiled.gate_tables
            tables[0] = 7
    """})
    (finding,) = findings_for(result, "HL001")
    assert finding.line == 4
    assert "gate_tables" in finding.message


def test_store_into_a_nested_entry_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.gate_tables[2][0] = 1
            compiled.net_load[0] += 1.0
    """})
    assert [f.line for f in findings_for(result, "HL001")] == [3, 4]


@pytest.mark.parametrize("method", [
    "append(0)", "extend([0])", "insert(0, 0)", "pop()", "remove(0)",
    "clear()", "reverse()", "sort()",
])
def test_every_in_place_list_method_fires(lint_tree, method):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.fanout_targets.%s
    """ % method})
    (finding,) = findings_for(result, "HL001")
    assert "." + method.split("(")[0] + "()" in finding.message
    assert "fanout_targets" in finding.message


def test_in_place_mutation_through_an_alias_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            arcs = compiled.arc_fall
            arcs.sort()
            arcs += [None]
            compiled.gate_tables[1].reverse()
    """})
    messages = [f.message for f in findings_for(result, "HL001")]
    assert len(messages) == 3
    assert "arc_fall" in messages[0] and "arc_fall" in messages[1]
    assert "gate_tables" in messages[2]


def test_del_of_an_entry_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            del compiled.arc_rise[0]
            inputs = compiled.input_net
            del inputs[1:]
    """})
    findings = findings_for(result, "HL001")
    assert [f.line for f in findings] == [3, 5]
    assert all(f.message.startswith("del ") for f in findings)


def test_setattr_and_inplace_method_fire(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            setattr(compiled, "arc_fall", None)
            compiled.net_driver.sort()
    """})
    messages = [f.message for f in findings_for(result, "HL001")]
    assert len(messages) == 2
    assert "setattr" in messages[0]
    assert ".sort()" in messages[1]


def test_rebinding_a_field_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled, self):
            compiled.net_driver = []
            self.net_driver = []
    """})
    (finding,) = findings_for(result, "HL001")
    assert finding.line == 3
    assert "rebinding" in finding.message


def test_sanctioned_seams_do_not_fire(lint_tree):
    result = lint_tree({
        # The owning module may build its lists freely.
        "src/repro/core/compiled.py": """
            def rebuild(self):
                self.arc_rise[0] = 1.0
        """,
        # ... as may fault injection ...
        "src/repro/faults/inject.py": """
            def apply(compiled):
                compiled.gate_tables[0] = [1, 0]
        """,
        # ... and a patched_lowering seam anywhere.
        MOD: """
            def patched_lowering(compiled):
                compiled.arc_rise[0] = 1.0
                del compiled.arc_fall[0]
        """,
    })
    assert findings_for(result, "HL001") == []


def test_reading_exports_is_fine(lint_tree):
    result = lint_tree({MOD: """
        def total_load(compiled):
            loads = compiled.net_load
            order = list(compiled.input_net)
            order.sort()
            stack = []
            stack.append(loads[0])
            return sum(loads) + stack.pop() + order[0]
    """})
    assert findings_for(result, "HL001") == []


def test_allow_directive_suppresses_one_line(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)
    """})
    assert findings_for(result, "HL001") == []


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {MOD: """
        def tweak(compiled):
            del compiled.arc_rise[0]
    """}
    assert findings_for(lint_tree(bad), "HL001")
    assert not findings_for(lint_tree(bad, disabled=["HL001"]), "HL001")
