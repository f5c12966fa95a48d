"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run A B [--scheme S] [--cycles N] [--obs] [--trace OUT.json
[--issue-sample N] [--mem-sample N]] [--phase-interval N]
[--artifacts DIR]``
    One concurrent workload under one scheme.  ``--obs`` appends the
    per-kernel stall-attribution breakdown (the paper's Figure 3
    methodology): where every scheduler issue slot went, and which L1D
    resource each LSU stall cycle waited on.  ``--trace`` also records
    the run as Chrome trace-event JSON — open in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``;
    ``--phase-interval`` samples interval time-series + the
    mechanism-adaptation event log; ``--artifacts`` writes a versioned
    run-artifact JSON to DIR.  Each of the three implies ``--obs``.
``report OUT.md [--quick]``
    Every paper table, figure and study of the figure registry
    (``repro.harness.experiments.FIGURES``) with its paper-shape
    verdicts, written to a markdown file.  ``--quick`` runs on the short
    ``quick`` cycle budget (``repro.harness.runner.BUDGETS``) and
    skips the workloads×schemes grids.
``campaign A,B [C,D ...] [--schemes S1,S2] [--workers N] [--progress]
[--obs] [--phase-interval N] [--artifacts DIR] [--timeout S]
[--retries N] [--backoff S] [--resume] [--fault-plan PLAN.json]
[--cache DIR]``
    A mixes×schemes grid fanned out over worker processes, with
    optional live heartbeat telemetry, per-cell stall reports, phase
    sampling, and a per-cell run-artifact ledger under DIR.  By default
    the first failing cell ends the campaign (``error: ...``, exit 1).
    Any of ``--timeout/--retries/--resume/--fault-plan`` sets a
    resilience policy on the same dispatcher
    (``repro.harness.resilience``): hung or crashed cells are retried
    with backoff then quarantined, completed cells checkpoint to a
    journal under the cache dir, and ``--resume`` re-runs only the
    unfinished remainder.
``dash ARTIFACTS OUT.html [--title T]``
    Render an artifacts directory (or one artifact) into a
    self-contained HTML dashboard: SVG sparklines of the phase series,
    stall-mix stacked bars, adaptation timelines.  No external assets.
``compare A B [--check] [--threshold PCT]``
    Diff two artifact sets by (workload, scheme): per-workload IPC
    deltas, stall-mix shifts, geomean total-IPC ratio.  With
    ``--check``, exit 1 when the geomean drops more than PCT percent
    (default 2) — the simulated-metric regression gate for CI.
``lint [paths] [--format text|json|github] [--select IDS]
[--list-rules] [--root DIR]``
    AST-based simulator-invariant linter, one pass per file
    (determinism, sentinel-hook discipline, stat hygiene,
    picklability) — see ``docs/LINT_RULES.md``.  Exits 1 on findings,
    2 on usage errors.
``schemes``
    List the scheme names the harness understands.
"""

from __future__ import annotations

import argparse
import math
import sys

# Each ``cmd_*`` imports what it runs, and so does everything below it:
# a package ``__init__`` imports none of its modules, the runner imports
# the simulator where it simulates and ``SchemeConfig`` its mechanisms
# where it builds them.  ``lint``, ``dash``, ``compare`` and ``schemes``
# never load ``repro.sim``/``repro.mem``, and a fully journaled ``campaign
# --resume`` loads the harness, the ledger and the classes its pickled
# records name (``sim.stats``, ``obs.collector``), but none of the cycle
# model.  No ``repro`` module imports ``hashlib`` (which maps OpenSSL):
# every digest comes from ``repro._digest``.
# ``tests/test_cli_and_report.py`` holds all three.

def _at_least(convert, minimum, exclusive=False):
    """An argparse ``type``: a finite ``convert(text)`` no less than
    ``minimum`` (above it if ``exclusive``).  A bad value is a usage
    error — exit 2 before any runner, job or cache dir exists — not a
    silent default and not a cell fault to retry and quarantine.  NaN
    and infinity are bad values: an infinite timeout overflows the
    dispatcher's wait, an infinite threshold passes every check."""
    kind = "an integer" if convert is int else "a finite number"
    rule = f"{kind} {'>' if exclusive else '>='} {minimum}"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        # NaN fails either comparison.
        if value is None or value == math.inf or not (
                value > minimum if exclusive else value >= minimum):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value
    return parse


#: cycle budgets, sampling intervals and rates, worker counts.
POSITIVE_INT = _at_least(int, 1)
#: retry counts.
COUNT = _at_least(int, 0)
#: a timeout in seconds.
POSITIVE_SECONDS = _at_least(float, 0, exclusive=True)
#: a backoff in seconds, a threshold in percent.
NON_NEGATIVE = _at_least(float, 0)


def _scaled_runner(settings=None, cache_dir=None):
    """An :class:`ExperimentRunner` on the scaled machine — what every
    simulating subcommand drives."""
    from repro.config import scaled_config
    from repro.harness.runner import ExperimentRunner
    return ExperimentRunner(scaled_config(), settings, cache_dir=cache_dir)


def _obs_options(args):
    """Resolve the observability request of ``run``: any of ``--obs``,
    ``--trace``, ``--phase-interval`` or ``--artifacts`` observes."""
    from repro.obs.collector import ObsOptions
    if not (args.obs or args.trace or args.phase_interval
            or args.artifacts):
        return None
    return ObsOptions(trace=bool(args.trace),
                      trace_issue_sample=args.issue_sample,
                      trace_mem_sample=args.mem_sample,
                      phase_interval=args.phase_interval)


def _bad_names(mixes, schemes, observed) -> bool:
    """Resolve every kernel and scheme name, and check each scheme
    against each mix, before a runner, a job or a cache directory
    exists: an unknown name, a per-kernel list that does not fit a mix
    (``ws-smil:3`` on two kernels) or an observed ``dws*`` run is a
    usage error — one ``error:`` line, exit 2 — not a traceback and
    not a cell fault to retry and quarantine."""
    from repro.core.arbiter import SCHEMES, parse_scheme
    from repro.harness.runner import DWS_UNOBSERVABLE
    from repro.workloads.profiles import get_profile
    try:
        for names in mixes:
            for name in names:
                get_profile(name)
        parsed = [parse_scheme(scheme) for scheme in schemes]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return True
    except ValueError as exc:
        known = ", ".join(name for name, _ in SCHEMES)
        print(f"error: {exc} (known: {known})", file=sys.stderr)
        return True
    for scheme, (partition, stack) in zip(schemes, parsed):
        for names in mixes:
            try:
                if partition == "dws" and observed:
                    raise ValueError(DWS_UNOBSERVABLE)
                if stack is not None:
                    stack.check_kernels(len(names))
            except ValueError as exc:
                print(f"error: scheme {scheme!r} on mix "
                      f"{'+'.join(names)!r}: {exc}", file=sys.stderr)
                return True
    return False


def cmd_run(args) -> int:
    from repro.workloads.mixes import mix
    obs = _obs_options(args)
    if _bad_names([(args.a, args.b)], (args.scheme,), obs is not None):
        return 2
    runner = _scaled_runner()
    try:
        outcome = runner.run_mix(mix(args.a, args.b), args.scheme,
                                 cycles=args.cycles, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {outcome.mix_name} ({outcome.mix_class}) "
          f"under {outcome.scheme}")
    print(f"  TB partition/SM : {outcome.partition}")
    for name, norm in zip((args.a, args.b), outcome.norm_ipcs):
        print(f"  {name:>4} normalized IPC: {norm:.3f}")
    print(f"  weighted speedup: {outcome.weighted_speedup:.3f}")
    print(f"  ANTT            : {outcome.antt:.3f}")
    print(f"  fairness        : {outcome.fairness:.3f}")
    result = outcome.result
    if result.sleep is not None:
        # Host-side: how much of the run the fast loop slept through
        # (0% on the reference loop).
        print(f"  SM sleep        : {result.sleep_ratio():.1%} of SM-cycles "
              f"(idle {result.sleep_ratio('idle'):.1%}, "
              f"memory-stall {result.sleep_ratio('mem_stall'):.1%}, "
              f"MIL-capped {result.sleep_ratio('mil_capped'):.1%}; "
              f"{result.sleep['stall_wakes']} stall wakes)")
        minsts = sum(k.mem_insts for k in result.kernels.values())
        print(f"  LSU             : {result.sleep['insts_through']} of "
              f"{minsts} memory instructions finished at issue")
    # Host-side too: what this process's kernel-trace cache did.
    from repro.obs.registry import process_registry
    cache = process_registry().snapshot("trace_cache")
    print(f"  trace cache     : "
          f"{cache['trace_cache.chunk_compiles']} chunk compiles, "
          f"{cache['trace_cache.warp_hits']} warp hits, "
          f"{cache['trace_cache.ops_compiled']} ops compiled in "
          f"{cache['trace_cache.bytes_compiled']} bytes")
    report = result.obs
    if report is not None:
        from repro.obs.stalls import format_stall_report
        print()
        print(format_stall_report(report))
    if report is not None and report.phases:
        record = report.phases[0]
        events = record.get("adapt_events", [])
        samples = len(record.get("series", {}).get("cycle", []))
        print(f"\nphase telemetry: {samples} samples @ "
              f"{record['interval']}-cycle interval, "
              f"{len(events)} adaptation events")
    if args.artifacts:
        from repro.obs import ledger
        artifact = ledger.artifact_from_outcome(
            outcome, runner.config, runner.settings,
            git_sha=ledger.current_git_sha())
        paths = ledger.write_artifacts(args.artifacts, [artifact])
        print(f"artifact written to {paths[0]}")
    if args.trace:
        report.write_trace(args.trace)
        print(f"\ntrace written to {args.trace} "
              f"({len(report.trace_events)} events, "
              f"{report.trace_dropped} dropped) — open in Perfetto")
    return 0


def cmd_report(args) -> int:
    from repro.harness.reporting import write_report
    from repro.harness.runner import BUDGETS
    runner = _scaled_runner(BUDGETS["quick" if args.quick else "report"])
    write_report(args.out, runner, include_sweeps=not args.quick)
    print(f"report written to {args.out}")
    return 0


def cmd_campaign(args) -> int:
    from repro.harness.reporting import format_table
    from repro.harness.resilience import (PLAIN, FaultPlan, JobError,
                                          Quarantined, ResiliencePolicy,
                                          run_campaign_resilient)
    from repro.workloads.mixes import mix
    specs = []
    for spec in args.mixes:
        names = [n.strip() for n in spec.split(",") if n.strip()]
        if len(names) < 2:
            print(f"error: mix {spec!r} needs at least two kernels",
                  file=sys.stderr)
            return 2
        specs.append(names)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        print(f"error: --schemes {args.schemes!r} names no scheme",
              file=sys.stderr)
        return 2
    obs = args.obs or bool(args.phase_interval) or bool(args.artifacts)
    if _bad_names(specs, schemes, obs):
        return 2
    from repro.harness.parallel import requested_workers
    try:
        requested_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = None
    if args.fault_plan is not None:
        try:
            plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: --fault-plan {args.fault_plan}: {exc}",
                  file=sys.stderr)
            return 2
    mixes = [mix(*names) for names in specs]
    # Any of the four flags asks for a resilience policy, which
    # checkpoints under the cache dir — so it defaults one on; the
    # plain policy keeps the historical cacheless default unless
    # --cache asks otherwise.
    resilient = (args.resume or args.fault_plan is not None
                 or args.timeout is not None or args.retries is not None)
    policy = PLAIN
    if resilient:
        policy = ResiliencePolicy(
            timeout_s=args.timeout,
            retries=args.retries if args.retries is not None else 2,
            backoff_s=args.backoff)
    cache_dir = args.cache or (".repro_cache" if resilient else None)
    runner = _scaled_runner(cache_dir=cache_dir)
    telemetry = None
    if args.progress:
        from repro.obs.telemetry import CampaignTelemetry
        telemetry = CampaignTelemetry()
    try:
        outcomes, report = run_campaign_resilient(
            runner, mixes, schemes, policy=policy, workers=args.workers,
            obs=obs, progress=telemetry,
            phase_interval=args.phase_interval,
            artifacts_dir=args.artifacts, resume=args.resume,
            fault_plan=plan)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if resilient:
        print(report.summary(), file=sys.stderr)
    for placeholder in outcomes:
        if isinstance(placeholder, Quarantined):
            print(f"  quarantined: {placeholder.label} "
                  f"({', '.join(placeholder.faults)})", file=sys.stderr)
    outcomes = [o for o in outcomes if not isinstance(o, Quarantined)]
    if telemetry is not None:
        print(telemetry.summary(), file=sys.stderr)
    rows = [[o.mix_name, o.scheme, str(o.partition), o.weighted_speedup,
             o.antt, o.fairness] for o in outcomes]
    print(format_table(
        ["mix", "scheme", "TBs/SM", "WS", "ANTT", "fairness"],
        rows, precision=3))
    if obs:
        from repro.obs.collector import ObsReport
        from repro.obs.stalls import format_stall_report
        reports = [o.result.obs for o in outcomes if o.result.obs is not None]
        if reports:
            print()
            print(f"stall attribution merged over {len(reports)} cells:")
            merged = ObsReport.merged(reports)
            print(format_stall_report(merged))
            if merged.phases:
                events = sum(len(r.get("adapt_events", []))
                             for r in merged.phases)
                print(f"\nphase telemetry: {len(merged.phases)} records, "
                      f"{events} adaptation events")
    if args.artifacts:
        print(f"artifacts written to {args.artifacts}/", file=sys.stderr)
    return 0


def cmd_dash(args) -> int:
    from repro.obs import ledger
    from repro.obs.dash import write_dashboard
    artifacts = ledger.load_artifacts(args.artifacts)
    if not artifacts:
        print(f"error: no valid artifacts under {args.artifacts}",
              file=sys.stderr)
        return 2
    ordered = [artifacts[key] for key in sorted(artifacts)]
    write_dashboard(args.out, ordered, title=args.title)
    print(f"dashboard with {len(ordered)} artifact(s) written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    from repro.obs.compare import compare_paths, format_comparison
    comparison = compare_paths(args.a, args.b)
    print(format_comparison(comparison, threshold_pct=args.threshold))
    if not comparison.cells:
        print("error: no overlapping (workload, scheme) cells",
              file=sys.stderr)
        return 2
    if args.check and comparison.regressed(args.threshold):
        print(f"compare: geomean total-IPC regression beyond "
              f"{args.threshold:g}% threshold", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import run_lint_command
    return run_lint_command(
        paths=args.paths,
        fmt=args.format,
        select=args.select,
        list_rules=args.list_rules,
        root=args.root,
    )


def cmd_schemes(_args) -> int:
    from repro.core.arbiter import SCHEMES
    from repro.harness.reporting import format_table
    print(format_table(["scheme", "meaning"],
                       [[a, b] for a, b in SCHEMES]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPCA'18 CKE memory-pipeline-stall reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run")
    run.add_argument("a")
    run.add_argument("b")
    run.add_argument("--scheme", default="ws-dmil")
    run.add_argument("--cycles", type=POSITIVE_INT, default=None)
    run.add_argument("--obs", action="store_true",
                     help="collect and print the stall-attribution breakdown")
    run.add_argument("--trace", metavar="OUT.json", default=None,
                     help="also record a Chrome trace (implies --obs)")
    run.add_argument("--issue-sample", type=POSITIVE_INT, default=16,
                     help="record every Nth warp-issue slice (default 16)")
    run.add_argument("--mem-sample", type=POSITIVE_INT, default=4,
                     help="trace every Nth memory request (default 4)")
    run.add_argument("--phase-interval", type=POSITIVE_INT, default=None,
                     metavar="N",
                     help="sample phase time-series every N cycles "
                          "(implies --obs)")
    run.add_argument("--artifacts", metavar="DIR", default=None,
                     help="write a versioned run-artifact JSON under DIR "
                          "(implies --obs)")
    run.set_defaults(fn=cmd_run)

    report = sub.add_parser("report")
    report.add_argument("out")
    report.add_argument("--quick", action="store_true")
    report.set_defaults(fn=cmd_report)

    campaign = sub.add_parser("campaign")
    campaign.add_argument("mixes", nargs="+", metavar="A,B",
                          help="comma-separated kernel names per mix")
    campaign.add_argument("--schemes", default="ws,ws-dmil")
    campaign.add_argument("--workers", type=POSITIVE_INT, default=None)
    campaign.add_argument("--progress", action="store_true",
                          help="print one heartbeat line per finished job")
    campaign.add_argument("--obs", action="store_true",
                          help="observe each cell; print a merged stall "
                               "report after the table")
    campaign.add_argument("--phase-interval", type=POSITIVE_INT, default=None,
                          metavar="N",
                          help="sample phase time-series in every cell "
                               "every N cycles (implies --obs)")
    campaign.add_argument("--artifacts", metavar="DIR", default=None,
                          help="write one run-artifact JSON per cell plus "
                               "a ledger.json index under DIR "
                               "(implies --obs)")
    campaign.add_argument("--timeout", type=POSITIVE_SECONDS, default=None,
                          metavar="S",
                          help="per-job wall-clock budget in seconds; a "
                               "worker past it is killed and the cell "
                               "retried")
    campaign.add_argument("--retries", type=COUNT, default=None, metavar="N",
                          help="extra attempts per failed cell before "
                               "quarantine (default 2 under --timeout/"
                               "--resume/--fault-plan)")
    campaign.add_argument("--backoff", type=NON_NEGATIVE, default=0.25,
                          metavar="S",
                          help="base retry backoff in seconds, doubled "
                               "per attempt (default 0.25)")
    campaign.add_argument("--resume", action="store_true",
                          help="replay the checkpoint journal under the "
                               "cache dir and re-run only unfinished/"
                               "quarantined cells")
    campaign.add_argument("--fault-plan", metavar="PLAN.json", default=None,
                          help="deterministic fault-injection plan for "
                               "chaos testing (see docs/RESILIENCE.md)")
    campaign.add_argument("--cache", metavar="DIR", default=None,
                          help="cache directory (default: .repro_cache "
                               "when a resilience flag is active, else "
                               "none)")
    campaign.set_defaults(fn=cmd_campaign)

    dash = sub.add_parser("dash")
    dash.add_argument("artifacts", metavar="ARTIFACTS",
                      help="artifacts directory (or one artifact JSON)")
    dash.add_argument("out", metavar="OUT.html")
    dash.add_argument("--title", default=None)
    dash.set_defaults(fn=cmd_dash)

    compare = sub.add_parser("compare")
    compare.add_argument("a", metavar="A",
                         help="baseline artifacts directory or file")
    compare.add_argument("b", metavar="B",
                         help="candidate artifacts directory or file")
    compare.add_argument("--check", action="store_true",
                         help="exit 1 when the geomean total-IPC ratio "
                              "drops beyond the threshold")
    compare.add_argument("--threshold", type=NON_NEGATIVE, default=2.0,
                         metavar="PCT",
                         help="allowed geomean drop in percent (default 2)")
    compare.set_defaults(fn=cmd_compare)

    lint = sub.add_parser("lint")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: src)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "github"],
                      help="report format (github = Actions annotations)")
    lint.add_argument("--select", action="append", default=[],
                      metavar="IDS",
                      help="comma-separated rule ids or family prefixes "
                           "to run (e.g. REPRO-D001,REPRO-S); default: all")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--root", default=None,
                      help="repo root for path-scoped rules "
                           "(default: current directory)")
    lint.set_defaults(fn=cmd_lint)

    sub.add_parser("schemes").set_defaults(fn=cmd_schemes)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
