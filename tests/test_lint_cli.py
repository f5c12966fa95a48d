"""CLI-level linter tests: ``python -m repro lint`` exit codes,
formats and rule selection."""

import json
import os

import pytest

from repro.__main__ import main

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FIXROOT = os.path.join(HERE, "lint_fixtures")


def run(argv):
    return main(["lint"] + argv)


# ----------------------------------------------------------------------
# exit codes
def test_findings_exit_1(capsys):
    code = run(["src/repro/sim/fix_d001.py", "--root", FIXROOT])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO-D001" in out


def test_clean_tree_exits_0(capsys):
    code = run(["src/repro/lint", "--root", REPO_ROOT])
    assert code == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_repo_src_and_tests_are_clean():
    assert run(["src", "tests", "--root", REPO_ROOT]) == 0


def test_unknown_rule_id_exits_2(capsys):
    code = run(["src", "--root", REPO_ROOT, "--select", "REPRO-X999"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unknown rule id" in err


def test_missing_path_exits_2(capsys):
    code = run(["no/such/dir", "--root", REPO_ROOT])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "does not exist" in err


# ----------------------------------------------------------------------
# rule selection
def test_select_restricts_rules(capsys):
    # fix_d001 violates D001 only; selecting D002 must report nothing.
    code = run(["src/repro/sim/fix_d001.py", "--root", FIXROOT,
                "--select", "REPRO-D002"])
    assert code == 0
    capsys.readouterr()


def test_select_accepts_shorthand_and_lists(capsys):
    code = run(["src/repro/sim/fix_d001.py", "--root", FIXROOT,
                "--select", "d001,o001"])
    assert code == 1
    capsys.readouterr()


def test_select_accepts_family_prefixes(capsys):
    # REPRO-D matches all four determinism rules; fix_d001 still flags.
    code = run(["src/repro/sim/fix_d001.py", "--root", FIXROOT,
                "--select", "REPRO-D"])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO-D001" in out

    # a family prefix excluding the violated rule reports nothing
    code = run(["src/repro/sim/fix_d001.py", "--root", FIXROOT,
                "--select", "REPRO-S,REPRO-O"])
    assert code == 0
    capsys.readouterr()


RULES = ("REPRO-D001", "REPRO-D002", "REPRO-D003", "REPRO-D004",
         "REPRO-O001", "REPRO-S002", "REPRO-S003", "REPRO-P001")


def test_unknown_family_prefix_exits_2(capsys):
    # REPRO-X never existed; the rest are retired rules, which must not
    # be selectable as silent no-ops.
    for selector in ("REPRO-X", "REPRO-W", "REPRO-R", "W001", "S004",
                     "S001"):
        code = run(["src", "--root", REPO_ROOT, "--select", selector])
        assert code == 2
        err = capsys.readouterr().err
        assert "family prefix" in err
        known = err[err.index("(known: "):]
        assert known.count("REPRO-") == len(RULES)
        for rid in RULES:  # the known-rule list names every rule
            assert rid in known


def test_list_rules_prints_catalog(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in RULES:
        assert rid in out
    assert sum(line.startswith("REPRO-") for line in out.splitlines()) \
        == len(RULES)
    assert "bad:" in out and "good:" in out


def test_project_flag_is_gone(capsys):
    # removed, not deprecated: argparse rejects it before any linting
    with pytest.raises(SystemExit) as exc:
        run(["src", "--root", REPO_ROOT, "--project"])
    assert exc.value.code == 2
    assert "--project" in capsys.readouterr().err


# ----------------------------------------------------------------------
# formats
def test_json_format(capsys):
    code = run(["src/repro/sim/fix_d002.py", "--root", FIXROOT,
                "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] >= 2
    assert all(f["rule"] == "REPRO-D002" for f in payload["findings"])


def test_github_format(capsys):
    code = run(["src/repro/sim/fix_d003.py", "--root", FIXROOT,
                "--format", "github"])
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=src/repro/sim/fix_d003.py" in out
    assert "title=REPRO-D003" in out

