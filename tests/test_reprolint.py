"""Tests for ``repro.lint`` — the AST-based contract linter.

Three layers of coverage:

* per-rule positive/negative tests against the snippets under
  ``tests/fixtures/reprolint/`` (each rule must fire on its violation
  fixture and stay silent on its clean counterpart),
* the self-clean gate: linting the shipped ``src/`` tree produces
  zero findings,
* the CLI contract: ``--select``/``--ignore``, JSON output, inline
  suppression comments, exit codes, and the no-third-party-imports
  guarantee that lets CI run the linter before installing numpy.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import PARSE_ERROR, all_rules, lint_paths, resolve_rules
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "reprolint"

RULE_IDS = [f"RPL{n:03d}" for n in range(1, 12)]
#: Rules with fixture files under ``tests/fixtures/reprolint/``.  RPL011's
#: fixtures are inline snippets (``TestConstantAssertRule``): as files
#: under ``tests/`` its violations would trip the linter's own CI gate.
FIXTURE_RULE_IDS = RULE_IDS[:10]


def _fixture(rule_id: str, kind: str) -> Path:
    """Resolve a fixture path; scoped rules use a directory, flat rules
    a single ``.py`` file."""
    base = FIXTURES / rule_id.lower()
    as_file = base / f"{kind}.py"
    as_dir = base / kind
    return as_file if as_file.exists() else as_dir


def _rules_hit(path: Path, select=None):
    report = lint_paths([str(path)], select=select)
    return {finding.rule for finding in report.findings}


# ---------------------------------------------------------------------------
# Per-rule fixtures
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", FIXTURE_RULE_IDS)
    def test_violation_fixture_fires(self, rule_id):
        path = _fixture(rule_id, "violation")
        assert path.exists(), f"missing violation fixture for {rule_id}"
        assert _rules_hit(path, select=[rule_id]) == {rule_id}

    @pytest.mark.parametrize("rule_id", FIXTURE_RULE_IDS)
    def test_clean_fixture_is_silent(self, rule_id):
        path = _fixture(rule_id, "clean")
        assert path.exists(), f"missing clean fixture for {rule_id}"
        assert _rules_hit(path, select=[rule_id]) == set()

    @pytest.mark.parametrize("rule_id", FIXTURE_RULE_IDS)
    def test_clean_fixture_passes_all_rules(self, rule_id):
        # The clean snippets must not trip *any* rule — otherwise a
        # fixture meant as a negative example for one rule hides a
        # positive for another.
        assert _rules_hit(_fixture(rule_id, "clean")) == set()

    def test_violation_exit_code_is_two(self):
        report = lint_paths([str(_fixture("RPL001", "violation"))])
        assert report.exit_code == 2

    def test_clean_exit_code_is_zero(self):
        report = lint_paths([str(_fixture("RPL001", "clean"))])
        assert report.exit_code == 0


# ---------------------------------------------------------------------------
# Self-clean gate
# ---------------------------------------------------------------------------


class TestSelfClean:
    def test_shipped_src_tree_is_clean(self):
        report = lint_paths([str(SRC_DIR)])
        rendered = "\n".join(f.render() for f in report.findings)
        assert not report.findings, f"src/ has lint findings:\n{rendered}"
        assert report.exit_code == 0
        # Sanity: the run actually covered the tree and ran every rule.
        assert report.files > 50
        assert list(report.rules) == RULE_IDS

    def test_linter_lints_itself(self):
        report = lint_paths([str(SRC_DIR / "repro" / "lint")])
        assert not report.findings


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------


class TestEngine:
    def test_resolve_rules_select(self):
        rules = resolve_rules(select=["RPL003"])
        assert [rule.id for rule in rules] == ["RPL003"]

    def test_resolve_rules_ignore(self):
        rules = resolve_rules(ignore=["RPL006", "RPL008"])
        assert [rule.id for rule in rules] == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL007",
            "RPL009", "RPL010", "RPL011",
        ]

    def test_resolve_rules_unknown_id(self):
        with pytest.raises(LintError):
            resolve_rules(select=["RPL999"])

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            lint_paths([str(FIXTURES / "does-not-exist")])

    def test_syntax_error_reports_rpl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        report = lint_paths([str(bad)])
        assert [f.rule for f in report.findings] == [PARSE_ERROR]
        assert report.exit_code == 2

    def test_findings_sorted_and_rendered(self):
        report = lint_paths([str(_fixture("RPL008", "violation"))])
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        rendered = report.findings[0].render()
        assert "RPL008" in rendered
        assert rendered.count(":") >= 3  # path:line:col: RULE message

    def test_every_rule_has_summary(self):
        for rule in all_rules():
            assert rule.summary, f"{rule.id} has no summary"


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_inline_disable_hides_finding(self):
        report = lint_paths([str(FIXTURES / "suppressed.py")])
        assert [f.rule for f in report.findings] == ["RPL006"]
        assert report.findings[0].line == 21  # the uncommented violation
        assert report.suppressed == 2

    def test_disable_all(self, tmp_path):
        snippet = tmp_path / "allowed.py"
        snippet.write_text(
            "def f(x, into=[]):  # reprolint: disable=all\n"
            "    into.append(x)\n"
            "    return into\n",
            encoding="utf-8",
        )
        report = lint_paths([str(snippet)])
        assert not report.findings
        assert report.suppressed == 1

    def test_parse_errors_cannot_be_suppressed(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:  # reprolint: disable=all\n",
                       encoding="utf-8")
        report = lint_paths([str(bad)])
        assert [f.rule for f in report.findings] == [PARSE_ERROR]


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


class TestCli:
    def _run(self, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=stdout, stderr=stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    def test_clean_path_exits_zero(self):
        code, out, _ = self._run(str(_fixture("RPL006", "clean")))
        assert code == 0
        assert "clean" in out

    def test_findings_exit_two(self):
        code, out, _ = self._run(str(_fixture("RPL006", "violation")))
        assert code == 2
        assert "RPL006" in out

    def test_select_narrows_rules(self):
        code, out, _ = self._run(
            str(_fixture("RPL008", "violation")), "--select", "RPL006")
        assert code == 0
        assert "RPL008" not in out

    def test_ignore_drops_rule(self):
        code, _, _ = self._run(
            str(_fixture("RPL008", "violation")), "--ignore", "RPL008")
        assert code == 0

    def test_comma_separated_ids(self):
        code, _, _ = self._run(
            str(_fixture("RPL008", "violation")),
            "--ignore", "rpl006,rpl008")
        assert code == 0

    def test_json_output(self):
        code, out, _ = self._run(
            str(_fixture("RPL006", "violation")), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RPL006"}
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_json_clean_output(self):
        code, out, _ = self._run(
            str(_fixture("RPL006", "clean")), "--format", "json")
        assert code == 0
        assert json.loads(out)["findings"] == []

    def test_unknown_rule_exits_one(self):
        code, _, err = self._run("--select", "RPL999", str(SRC_DIR))
        assert code == 1
        assert "RPL999" in err

    def test_missing_path_exits_one(self):
        code, _, err = self._run(str(FIXTURES / "nope"))
        assert code == 1
        assert "error:" in err

    def test_list_rules(self):
        code, out, _ = self._run("--list-rules")
        assert code == 0
        for rule_id in RULE_IDS:
            assert rule_id in out


# ---------------------------------------------------------------------------
# Dependency-freeness: CI runs the linter before numpy exists
# ---------------------------------------------------------------------------


class TestNoThirdPartyImports:
    def test_cli_runs_without_numpy(self, tmp_path):
        # A poisoned numpy shadows the real one; if repro.lint (or the
        # lazy repro package root) imported it, the subprocess would
        # crash instead of reporting a clean tree.
        (tmp_path / "numpy.py").write_text(
            "raise ImportError('reprolint must not import numpy')\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(SRC_DIR)])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint",
             str(_fixture("RPL006", "clean"))],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout


# ---------------------------------------------------------------------------
# RPL007 project-level behaviour on synthetic trees
# ---------------------------------------------------------------------------


class TestResultDispatchRule:
    def _tree(self, tmp_path, registry_source):
        study = tmp_path / "study"
        study.mkdir()
        (study / "registry.py").write_text(
            textwrap.dedent(registry_source), encoding="utf-8")
        return tmp_path

    def test_ghost_study_flagged(self, tmp_path):
        tree = self._tree(tmp_path, """\
            class StudyResult:
                study_name = ""

            class StudyDefinition:
                def __init__(self, name):
                    self.name = name

            DEFS = [StudyDefinition("orphan")]
            """)
        report = lint_paths([str(tree)], select=["RPL007"])
        assert any("orphan" in f.message for f in report.findings)

    def test_matching_tree_clean(self, tmp_path):
        tree = self._tree(tmp_path, """\
            class StudyResult:
                study_name = ""

            class OrphanResult(StudyResult):
                study_name = "orphan"

            class StudyDefinition:
                def __init__(self, name):
                    self.name = name

            DEFS = [StudyDefinition("orphan")]
            """)
        report = lint_paths([str(tree)], select=["RPL007"])
        assert not report.findings


# ---------------------------------------------------------------------------
# RPL011 on inline snippets
# ---------------------------------------------------------------------------


class TestConstantAssertRule:
    VIOLATIONS = {
        "truthy_constant": 'assert "todo"',
        "constant_conditional": "assert x if True else y",
        "tuple_with_message": 'assert (x == y, "x differs")',
        "list": "assert [x]",
        "dict": "assert {x: y}",
        "set": "assert {x}",
        "fstring": 'assert f"{x} matches"',
    }
    CLEAN = """\
        assert x == y, "x differs"
        assert False, "unreachable"
        assert ()
        assert []
        assert {}
        assert (x == y)
        assert x if flag else y
        assert "abc" in text
        assert f"{x}" == "1"
        """

    def _lint(self, tmp_path, source, select=None):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_paths([str(snippet)], select=select)

    @pytest.mark.parametrize("case", sorted(VIOLATIONS))
    def test_violation_fires(self, tmp_path, case):
        report = self._lint(tmp_path, self.VIOLATIONS[case] + "\n",
                            select=["RPL011"])
        assert [f.rule for f in report.findings] == ["RPL011"]
        assert report.findings[0].line == 1

    def test_clean_snippet_passes_all_rules(self, tmp_path):
        assert not self._lint(tmp_path, self.CLEAN).findings
