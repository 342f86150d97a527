"""No baseline: a finding gates until its code is fixed or its own line
carries a reviewable ``# halolint: allow(...)``.

There is no baseline file to grandfather findings into. These tests pin
the round-trip properties a baseline used to have on the one
suppression left, the per-line ``allow()`` directive: it silences only
its own line and rule, it travels with that line, removing it makes the
finding fire again, and a stray baseline file silences nothing.
"""

from __future__ import annotations

import json

from conftest import findings_for

from tools.halolint import run

MOD = "src/repro/core/consumer.py"
BAD = {MOD: """
    def tweak(compiled):
        compiled.arc_rise[3] = 0.5
"""}
ALLOWED = {MOD: """
    def tweak(compiled):
        compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)
"""}


def test_round_trip_suppress_then_unsuppress(lint_tree, tmp_path):
    # 1. The finding gates the run.
    first = lint_tree(BAD)
    assert not first.ok
    assert first.exit_code() == 2

    # 2. Allow it on its line; the same tree now passes.
    second = lint_tree(ALLOWED)
    assert second.ok
    assert second.exit_code() == 0

    # 3. Drop the directive: it fires again, identically.
    third = lint_tree(BAD)
    assert third.exit_code() == 2
    assert [f.message for f in third.report.findings] == [
        f.message for f in first.report.findings
    ]


def test_fingerprint_survives_line_shifts(lint_tree):
    shifted = {MOD: """
        # A comment pushing everything down.


        def tweak(compiled):
            compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)
    """}
    assert lint_tree(shifted).ok


def test_baseline_only_swallows_its_own_fingerprints(lint_tree):
    worse = {MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)
            compiled.arc_fall[3] = 0.5
    """}
    result = lint_tree(worse)
    assert result.exit_code() == 2
    (fresh,) = findings_for(result, "HL001")
    assert "arc_fall" in fresh.message


def test_malformed_baseline_is_rejected(lint_tree):
    """A directive that is misspelt or names another rule silences
    nothing."""
    for comment in ("# halolint: allow HL001", "# halolint allow(HL001)",
                    "# halolint: allow(HL005)", "# halolint: allow()"):
        source = {MOD: """
            def tweak(compiled):
                compiled.arc_rise[3] = 0.5  %s
        """ % comment}
        result = lint_tree(source)
        assert result.exit_code() == 2, comment
        assert len(findings_for(result, "HL001")) == 1, comment


def test_missing_baseline_is_empty(lint_tree, tmp_path):
    """A baseline file left in the tree is not read: its entry
    grandfathers nothing."""
    (finding,) = lint_tree(BAD).report.findings
    stray = tmp_path / "tools" / "halolint" / "baseline.json"
    stray.parent.mkdir(parents=True)
    stray.write_text(json.dumps({"version": 1, "entries": [{
        "rule": finding.rule, "file": finding.file,
        "message": finding.message,
    }]}))
    result = run(tmp_path)
    assert result.exit_code() == 2
    assert [f.message for f in result.report.findings] == [finding.message]


def test_each_entry_absorbs_one_finding(lint_tree):
    # Two findings with the same rule, file and message; allowing one
    # line leaves the other gating.
    twice = {MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)

        def tweak_again(compiled):
            compiled.arc_rise[3] = 0.5
    """}
    result = lint_tree(twice)
    assert result.exit_code() == 2
    (fresh,) = findings_for(result, "HL001")
    assert fresh.line == 6
