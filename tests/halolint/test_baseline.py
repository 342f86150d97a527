"""Baseline round trip: suppress, stay suppressed, un-suppress, fire."""

from __future__ import annotations

import json

import pytest
from conftest import findings_for

from tools.halolint import Baseline, run
from tools.halolint.baseline import fingerprint

MOD = "src/repro/core/consumer.py"
BAD = {MOD: """
    def tweak(compiled):
        compiled.arc_rise[3] = 0.5
"""}


def test_round_trip_suppress_then_unsuppress(lint_tree, tmp_path):
    # 1. The finding gates the run.
    first = lint_tree(BAD)
    assert not first.ok
    assert first.exit_code() == 2

    # 2. Grandfather it; the same tree now passes, finding accounted.
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(first.all_findings).save(baseline_path)
    baseline = Baseline.load(baseline_path)
    second = run(tmp_path, baseline=baseline)
    assert second.ok
    assert second.exit_code() == 0
    assert second.grandfathered == len(first.all_findings)
    assert second.stale_baseline == []

    # 3. Un-suppress (empty the baseline): it fires again, identically.
    third = run(tmp_path, baseline=Baseline())
    assert third.exit_code() == 2
    assert [f.message for f in third.report.findings] == [
        f.message for f in first.report.findings
    ]


def test_fingerprint_survives_line_shifts(lint_tree, tmp_path):
    first = lint_tree(BAD)
    baseline = Baseline.from_findings(first.all_findings)

    shifted = {MOD: """
        # A comment pushing everything down.


        def tweak(compiled):
            compiled.arc_rise[3] = 0.5
    """}
    second = lint_tree(shifted, baseline=baseline)
    assert second.ok
    assert second.grandfathered == 1


def test_fixed_finding_reports_a_stale_entry(lint_tree, tmp_path):
    first = lint_tree(BAD)
    baseline = Baseline.from_findings(first.all_findings)

    fixed = {MOD: """
        def tweak(compiled):
            return compiled
    """}
    second = lint_tree(fixed, baseline=baseline)
    assert second.ok
    assert second.grandfathered == 0
    assert second.stale_baseline == [
        fingerprint(first.all_findings[0])
    ]


def test_baseline_only_swallows_its_own_fingerprints(lint_tree):
    first = lint_tree(BAD)
    baseline = Baseline.from_findings(first.all_findings)

    worse = {MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5
            compiled.arc_fall[3] = 0.5
    """}
    second = lint_tree(worse, baseline=baseline)
    assert second.exit_code() == 2
    (fresh,) = findings_for(second, "HL001")
    assert "arc_fall" in fresh.message


def test_malformed_baseline_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError, match="not a halolint baseline"):
        Baseline.load(path)


def test_missing_baseline_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "nope.json").fingerprints == set()


def test_each_entry_absorbs_one_finding(lint_tree):
    # Two findings share one fingerprint (same rule, file and message);
    # a one-entry baseline grandfathers one of them, not both.
    twice = {MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5

        def tweak_again(compiled):
            compiled.arc_rise[3] = 0.5
    """}
    first = lint_tree(BAD)
    baseline = Baseline.from_findings(first.all_findings)
    assert len(baseline.entries) == 1

    second = lint_tree(twice, baseline=baseline)
    assert second.exit_code() == 2
    assert second.grandfathered == 1
    assert len(findings_for(second, "HL001")) == 1
    assert second.stale_baseline == []
