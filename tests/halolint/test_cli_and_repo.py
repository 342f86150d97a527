"""The CLI contract, and halolint over this repository itself."""

from __future__ import annotations

import json

from conftest import REPO_ROOT, findings_for

from tools.halolint import Baseline, run
from tools.halolint.cli import DEFAULT_BASELINE, main
from tools.halolint.registry import RULES

BAD = {"src/repro/core/consumer.py": """
    def tweak(compiled):
        compiled.arc_rise[3] = 0.5
"""}


def _seed(lint_tree, files):
    """Materialise ``files`` on disk; the lint result is discarded."""
    lint_tree(files)


def test_cli_exit_codes_and_human_output(lint_tree, tmp_path, capsys):
    _seed(lint_tree, BAD)
    code = main(["--root", str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 2
    assert "HL001" in out
    assert "arc_rise" in out


def test_cli_json_report(lint_tree, tmp_path, capsys):
    _seed(lint_tree, BAD)
    code = main(["--root", str(tmp_path), "--no-baseline", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["ok"] is False
    assert payload["rules"] == sorted(RULES)
    assert payload["findings"][0]["rule"] == "HL001"
    assert payload["findings"][0]["file"] == "src/repro/core/consumer.py"


def test_cli_write_baseline_then_clean(lint_tree, tmp_path, capsys):
    _seed(lint_tree, BAD)
    baseline = tmp_path / "baseline.json"
    argv = ["--root", str(tmp_path), "--baseline", str(baseline)]
    assert main(argv + ["--write-baseline"]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    # Pruning the baseline un-grandfathers the finding (CLI round trip).
    baseline.write_text(json.dumps({"version": 1, "entries": []}))
    assert main(argv) == 2


def test_cli_disable_flag(lint_tree, tmp_path):
    _seed(lint_tree, BAD)
    assert main([
        "--root", str(tmp_path), "--no-baseline", "--disable", "HL001",
    ]) == 0


def test_syntax_error_is_an_hl000_finding(lint_tree):
    result = lint_tree({"src/repro/broken.py": "def oops(:\n"})
    (finding,) = findings_for(result, "HL000")
    assert "does not parse" in finding.message
    assert result.exit_code() == 2


def test_repo_tree_is_clean_under_the_checked_in_baseline():
    """The gate CI enforces: fresh findings on this repo are a failure."""
    result = run(REPO_ROOT, baseline=Baseline.load(DEFAULT_BASELINE))
    assert result.report.findings == [], [
        str(f) for f in result.report.findings
    ]
    assert result.stale_baseline == [], (
        "baseline entries no longer match anything; prune them: %s"
        % result.stale_baseline
    )
    assert result.files_scanned > 50


def test_baseline_only_grandfathers_the_exception_long_tail():
    """The exception long tail is burnt down: the checked-in baseline
    grandfathers no finding of any rule, so every finding gates."""
    assert Baseline.load(DEFAULT_BASELINE).entries == []
