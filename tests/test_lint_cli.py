"""End-to-end tests for ``repro-c90 lint``: exit codes, reporters,
rule selection, and the bad-fixture corpus gate.

The corpus test is the same self-check CI runs: the analyzer must exit
non-zero on ``tests/fixtures/lint_bad`` with every rule in the
catalog represented, and exit zero on the project's own ``src`` tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import rule_names

FIXTURES = Path(__file__).parent / "fixtures" / "lint_bad"
SRC = Path(__file__).parent.parent / "src"


def lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr()


def test_src_tree_is_clean(capsys):
    code, cap = lint(capsys, str(SRC))
    assert code == 0, cap.out
    assert "no findings" in cap.out


def test_bad_fixture_corpus_fails(capsys):
    code, cap = lint(capsys, str(FIXTURES))
    assert code == 1
    assert "finding(s)" in cap.out


def test_every_rule_catches_its_fixture(capsys):
    code, cap = lint(capsys, "--json", str(FIXTURES))
    assert code == 1
    payload = json.loads(cap.out)
    assert not payload["clean"]
    flagged = {d["rule"] for d in payload["diagnostics"]}
    assert flagged == set(rule_names()), (
        "every rule must catch its bad fixture"
    )


def test_json_report_shape(capsys):
    code, cap = lint(capsys, "--json", str(FIXTURES / "bare_acquire.py"))
    assert code == 1
    payload = json.loads(cap.out)
    assert payload["files"] == 1
    assert payload["findings"] == len(payload["diagnostics"])
    diag = payload["diagnostics"][0]
    assert {"path", "line", "col", "rule", "message", "hint"} <= set(diag)


def test_single_clean_file_exits_zero(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    code, cap = lint(capsys, str(clean))
    assert code == 0
    assert "no findings" in cap.out


def test_rule_selection_limits_findings(capsys):
    code, cap = lint(capsys, "--rules", "lock-with-only", "--json", str(FIXTURES))
    assert code == 1
    payload = json.loads(cap.out)
    assert {d["rule"] for d in payload["diagnostics"]} == {"lock-with-only"}
    assert payload["rules"] == ["lock-with-only"]


def test_unknown_rule_is_usage_error(capsys):
    code, cap = lint(capsys, "--rules", "made-up", str(FIXTURES))
    assert code == 2
    assert "unknown rule" in cap.err


def test_missing_path_is_usage_error(capsys):
    code, cap = lint(capsys, "definitely/not/a/path")
    assert code == 2
    assert "does not exist" in cap.err


def test_list_rules(capsys):
    code, cap = lint(capsys, "--list-rules")
    assert code == 0
    for name in rule_names():
        assert name in cap.out


def test_human_report_carries_hints(capsys):
    code, cap = lint(capsys, str(FIXTURES / "core" / "implicit_dtype.py"))
    assert code == 1
    assert "hint:" in cap.out


def test_unused_suppression_toggle(capsys, tmp_path):
    marked = tmp_path / "marked.py"
    marked.write_text(
        "x = 1  # repolint: disable=lock-with-only\n", encoding="utf-8"
    )
    code, cap = lint(capsys, str(marked))
    assert code == 1
    assert "unused-suppression" in cap.out
    code, cap = lint(capsys, "--no-unused-suppressions", str(marked))
    assert code == 0
