"""Rule-level linter tests: every fixture's ``LINT-BAD`` markers must
match the engine's findings exactly — no misses, no extras."""

import os
import re

import pytest

from repro.lint.engine import LintEngine

HERE = os.path.dirname(os.path.abspath(__file__))
FIXROOT = os.path.join(HERE, "lint_fixtures")

_MARKER_RE = re.compile(r"LINT-BAD:\s*(REPRO-[A-Z]\d+)")

FIXTURES = {
    "REPRO-D001": "src/repro/sim/fix_d001.py",
    "REPRO-D002": "src/repro/sim/fix_d002.py",
    "REPRO-D003": "src/repro/sim/fix_d003.py",
    "REPRO-D004": "src/repro/sim/fix_d004.py",
    "REPRO-O001": "src/repro/sim/fix_o001.py",
    "REPRO-S002": "src/repro/sim/fix_s002.py",
    "REPRO-S003": "src/repro/sim/fix_s003.py",
    "REPRO-P001": "src/repro/harness/fix_p001.py",
}


def expected_markers(rel_path):
    """(line, rule) pairs the fixture declares via LINT-BAD markers."""
    expected = []
    with open(os.path.join(FIXROOT, rel_path), encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            for match in _MARKER_RE.finditer(text):
                expected.append((lineno, match.group(1)))
    return sorted(expected)


def lint_fixture(rel_path):
    engine = LintEngine(FIXROOT)
    return engine.lint_paths([rel_path])


@pytest.mark.parametrize("rule_id,rel_path", sorted(FIXTURES.items()))
def test_fixture_findings_match_markers(rule_id, rel_path):
    expected = expected_markers(rel_path)
    assert expected, f"fixture {rel_path} declares no LINT-BAD markers"
    got = sorted((f.line, f.rule) for f in lint_fixture(rel_path))
    assert got == expected
    assert any(rule == rule_id for _line, rule in got)


@pytest.mark.parametrize("rule_id,rel_path", sorted(FIXTURES.items()))
def test_each_rule_family_catches_a_seeded_violation(rule_id, rel_path):
    findings = lint_fixture(rel_path)
    assert any(f.rule == rule_id for f in findings)


def test_findings_carry_location_hint_and_snippet():
    findings = lint_fixture(FIXTURES["REPRO-D001"])
    assert findings
    for finding in findings:
        assert finding.path == FIXTURES["REPRO-D001"]
        assert finding.line > 0
        assert finding.hint
        assert finding.snippet
        assert finding.message


def test_sim_scoped_rules_silent_outside_sim_packages():
    findings = lint_fixture("src/repro/workloads/fix_scope.py")
    assert findings == []


def test_scope_metadata_matches_fixture_placement():
    # The same set-iteration source flags under sim/ and not under
    # workloads/ — path-scoped activation, exercised end to end above;
    # spot-check the rule metadata that drives it.
    from repro.lint.rules import all_rules, rules_by_id
    by_id = rules_by_id(all_rules())
    d001 = by_id["REPRO-D001"]
    assert d001.applies_to("src/repro/sim/sm.py")
    assert not d001.applies_to("src/repro/workloads/profiles.py")
    d003 = by_id["REPRO-D003"]
    assert not d003.applies_to("src/repro/harness/perfbench.py")
    assert not d003.applies_to("src/repro/obs/telemetry.py")
    assert d003.applies_to("src/repro/sim/engine.py")


def test_whole_repo_is_lint_clean():
    repo_root = os.path.dirname(HERE)
    engine = LintEngine(repo_root)
    findings = engine.lint_paths(["src", "tests", "scripts"])
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings)
