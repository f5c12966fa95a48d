"""Engine-level linter tests: pragmas, file collection, parse-error
handling."""

import json
import os

from repro.lint.engine import PARSE_ERROR_RULE, LintEngine
from repro.lint.findings import Finding
from repro.lint.output import format_github, format_json, format_text

HERE = os.path.dirname(os.path.abspath(__file__))
FIXROOT = os.path.join(HERE, "lint_fixtures")
PRAGMA_FIXTURE = "src/repro/sim/fix_pragma.py"


# ----------------------------------------------------------------------
# pragma suppression
def test_pragma_suppresses_same_line_and_line_above():
    engine = LintEngine(FIXROOT)
    findings = engine.lint_paths([PRAGMA_FIXTURE])
    # Three deliberate violations are suppressed (same-line, line-above,
    # disable=ALL); only the wrong-rule-id one survives.
    assert len(findings) == 1
    assert findings[0].rule == "REPRO-D001"
    assert engine.suppressed == 3


def test_pragma_for_other_rule_does_not_suppress():
    engine = LintEngine(FIXROOT)
    findings = engine.lint_paths([PRAGMA_FIXTURE])
    assert "wrong_rule_id" not in findings[0].snippet  # flags the for line
    assert findings[0].line > 0


# ----------------------------------------------------------------------
# file collection
def test_directory_walk_skips_lint_fixtures():
    engine = LintEngine(os.path.dirname(HERE))
    files = engine.collect_files(["tests"])
    assert files
    assert not any("lint_fixtures" in f for f in files)


def test_explicit_file_bypasses_exclusion():
    engine = LintEngine(os.path.dirname(HERE))
    target = os.path.join("tests", "lint_fixtures", PRAGMA_FIXTURE)
    files = engine.collect_files([target])
    assert len(files) == 1


def test_collection_is_sorted_and_deduplicated():
    engine = LintEngine(FIXROOT)
    files = engine.collect_files(["src", "src/repro/sim/fix_d001.py"])
    assert files == sorted(files)
    assert len(files) == len(set(files))


# ----------------------------------------------------------------------
# parse errors
def test_syntax_error_yields_pseudo_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    engine = LintEngine(str(tmp_path))
    findings = engine.lint_paths([str(bad)])
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE
    assert "does not parse" in findings[0].message


# ----------------------------------------------------------------------
# renderers
def _sample_findings():
    engine = LintEngine(FIXROOT)
    return engine.lint_paths(["src/repro/sim/fix_d002.py"])


def test_text_format_lists_location_and_hint():
    findings = _sample_findings()
    text = format_text(findings)
    assert f"{findings[0].path}:{findings[0].line}" in text
    assert "hint:" in text
    assert text.endswith("findings") or text.endswith("finding")
    assert "clean: no findings" in format_text([])


def test_json_format_round_trips():
    findings = _sample_findings()
    payload = json.loads(format_json(findings))
    assert payload["count"] == len(findings)
    assert [Finding.from_dict(d) for d in payload["findings"]] == findings


def test_github_format_emits_error_annotations():
    findings = _sample_findings()
    out = format_github(findings)
    lines = out.splitlines()
    assert len(lines) == len(findings)
    for line, finding in zip(lines, findings):
        assert line.startswith(f"::error file={finding.path},"
                               f"line={finding.line},")
        assert f"title={finding.rule}" in line
