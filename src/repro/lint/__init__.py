"""repro.lint — AST-based simulator-invariant linter.

The simulator's headline guarantees — fast loop bit-identical to the
reference loop, obs-on bit-identical to obs-off, parallel campaigns
bit-identical to serial — rest on coding invariants no unit test can
watch everywhere: deterministic iteration order, sentinel-guarded
observability hooks, taxonomy-closed stall accounting, picklable
process-boundary classes.  This package machine-checks them:

* :mod:`repro.lint.rules.determinism` — ``REPRO-D001..D004``;
* :mod:`repro.lint.rules.hooks` — ``REPRO-O001``;
* :mod:`repro.lint.rules.stats` — ``REPRO-S002..S003``;
* :mod:`repro.lint.rules.pickles` — ``REPRO-P001``.

The linter is one pass over one file at a time: every rule judges a
single AST, so what it proves is local.  The whole-program invariants
("no wake-up is ever missing", "no worker-written state is read
parent-side", "the taxonomy is closed") are pinned at run time instead
— ``docs/LINT_RULES.md`` has the audit that retired their rules.

Run it as ``python -m repro lint [paths]`` (see
:mod:`repro.lint.cli`), or drive the pieces directly::

    from repro.lint import LintEngine
    findings = LintEngine("/repo").lint_paths(["src"])
"""

from repro.lint.engine import (DEFAULT_EXCLUDE_DIRS, FileContext, LintEngine,
                               PARSE_ERROR_RULE)
from repro.lint.findings import Finding
from repro.lint.output import (format_catalog, format_github, format_json,
                               format_text, render)
from repro.lint.rules import Rule, all_rules, normalize_rule_id, rules_by_id
from repro.lint.scope import (SIM_SCOPE, SRC_SCOPE, collect_py_files,
                              path_in_scope, rel_posix)

__all__ = [
    "DEFAULT_EXCLUDE_DIRS",
    "FileContext",
    "Finding",
    "LintEngine",
    "PARSE_ERROR_RULE",
    "Rule",
    "SIM_SCOPE",
    "SRC_SCOPE",
    "all_rules",
    "collect_py_files",
    "format_catalog",
    "format_github",
    "format_json",
    "format_text",
    "normalize_rule_id",
    "path_in_scope",
    "rel_posix",
    "render",
    "rules_by_id",
]
