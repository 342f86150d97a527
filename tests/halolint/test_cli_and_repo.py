"""The CLI contract, and halolint over this repository itself."""

from __future__ import annotations

import json

import pytest
from conftest import REPO_ROOT, findings_for

from tools.halolint import run
from tools.halolint.cli import main
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
    code = main(["--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "HL001" in out
    assert "arc_rise" in out


def test_cli_json_report(lint_tree, tmp_path, capsys):
    _seed(lint_tree, BAD)
    code = main(["--root", str(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["ok"] is False
    assert "grandfathered" not in payload
    assert "stale_baseline" not in payload
    assert payload["rules"] == sorted(RULES)
    assert payload["findings"][0]["rule"] == "HL001"
    assert payload["findings"][0]["file"] == "src/repro/core/consumer.py"


def test_cli_write_baseline_then_clean(lint_tree, tmp_path, capsys):
    """No command line writes a baseline: ``--write-baseline`` is a
    usage error, nothing is written, and the finding keeps gating."""
    _seed(lint_tree, BAD)
    with pytest.raises(SystemExit) as excinfo:
        main(["--root", str(tmp_path), "--write-baseline"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.rglob("baseline.json"))
    assert main(["--root", str(tmp_path)]) == 2


def test_cli_disable_flag(lint_tree, tmp_path):
    _seed(lint_tree, BAD)
    assert main(["--root", str(tmp_path), "--disable", "HL001"]) == 0


def test_syntax_error_is_an_hl000_finding(lint_tree):
    result = lint_tree({"src/repro/broken.py": "def oops(:\n"})
    (finding,) = findings_for(result, "HL000")
    assert "does not parse" in finding.message
    assert result.exit_code() == 2


def test_repo_tree_is_clean_under_the_checked_in_baseline():
    """The gate CI enforces: any finding on this repo is a failure (there
    is no baseline left to absorb one)."""
    result = run(REPO_ROOT)
    assert result.report.findings == [], [
        str(f) for f in result.report.findings
    ]
    assert result.files_scanned > 50


def test_baseline_only_grandfathers_the_exception_long_tail(
    lint_tree, tmp_path, capsys
):
    """The exception long tail is burnt down (HL005 finds nothing in
    this repo) and the grandfathering mode is gone: the baseline flags
    are usage errors, so no command line can swallow a finding."""
    assert findings_for(run(REPO_ROOT), "HL005") == []
    _seed(lint_tree, BAD)
    for flag in ("--baseline=baseline.json", "--no-baseline"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", str(tmp_path), flag])
        assert excinfo.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err, flag
