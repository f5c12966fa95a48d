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

    from repro.lint.engine import LintEngine
    findings = LintEngine("/repo").lint_paths(["src"])
"""
