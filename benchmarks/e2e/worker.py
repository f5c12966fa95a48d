#!/usr/bin/env python3
"""One child process of the e2e benchmark.  ``run.py`` starts a fresh
interpreter per leg (``rep``, ``prep``, ``import-main``, ``trace``,
``spin``) with
a scrubbed environment; the leg drives the program through its public
entry points and prints one JSON object as its last line of stdout.

Times are ``time.perf_counter()`` values: CLOCK_MONOTONIC on Linux, so
the parent can place a child's spans on its own time line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import statistics
import sys
import time

from spec import REFCHECK_CYCLES, WORKLOADS


class Spans:
    """In-memory span list of this process, handed to the parent."""

    def __init__(self, parent_id):
        self.parent_id = parent_id
        self.items = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": f"{self.parent_id}/{len(self.items)}", "name": name,
                  "parent": self.parent_id, "start": time.perf_counter()}
        self.items.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def seconds(self, name):
        return sum(s["end"] - s["start"] for s in self.items
                   if s["name"] == name)


def import_program(spans, with_runner):
    with spans.span("import"):
        import repro.config  # noqa: F401
        import repro.sim.engine  # noqa: F401
        import repro.workloads.profiles  # noqa: F401
        if with_runner:
            import repro.harness.runner  # noqa: F401
            import repro.workloads.mixes  # noqa: F401


def build_gpu(spec, seed, scheme=None, reference=None):
    from repro.config import MAXWELL_CONFIG
    from repro.sim.engine import GPU, make_launches
    from repro.workloads.profiles import get_profile
    profiles = [get_profile(k) for k in spec["kernels"]]
    if spec.get("tb_limits"):
        tbs = spec["tb_limits"]
    elif len(profiles) > 1:
        from repro.cke.partition import even_partition
        tbs = even_partition(profiles, MAXWELL_CONFIG)
    else:
        tbs = [profiles[0].max_tbs_per_sm(MAXWELL_CONFIG)]
    launches = make_launches(profiles, list(tbs), MAXWELL_CONFIG, seed=seed)
    return GPU(MAXWELL_CONFIG, launches, scheme, reference=reference)


def build_runner(args):
    from repro.config import MAXWELL_CONFIG
    from repro.harness.runner import ExperimentRunner, RunnerSettings
    cycles = args.iso_cycles or args.cycles
    settings = RunnerSettings(iso_cycles=cycles, curve_cycles=cycles,
                              concurrent_cycles=cycles, seed=args.seed)
    return ExperimentRunner(MAXWELL_CONFIG, settings, cache_dir=args.cache)


def run_dmil(runner, spec, cycles):
    from repro.core.arbiter import SchemeConfig
    from repro.workloads.mixes import mix
    return runner.run_mix_with_stack(
        mix(*spec["kernels"]), SchemeConfig(mil="dmil"),
        partition_scheme="even", cycles=cycles)


def digest(signature) -> str:
    return hashlib.sha1(repr(signature).encode()).hexdigest()


def run_counts(result) -> dict:
    """Exact-repeat work counts of one RunResult (modelled caches start
    empty; there is no simulated warm-up window)."""
    from repro.obs import process_registry
    accesses = sum(result.l1d_accesses.values())
    cache = process_registry().snapshot("trace_cache")
    return {
        "sim.warp_insts": result.total_insts(),
        "sim.mem_insts": sum(k.mem_insts for k in result.kernels.values()),
        "sim.ipc": result.total_ipc(),
        "sim.lsu_stall_cycles": result.lsu_stall_cycles,
        "workloads.trace_chunk_compiles": cache["trace_cache.chunk_compiles"],
        "workloads.trace_warp_hits": cache["trace_cache.warp_hits"],
        "workloads.trace_disk_hits": cache["trace_cache.disk_hits"],
        "mem.l1d_accesses": accesses,
        "mem.l1d_miss_rate": sum(result.l1d_misses.values()) / accesses,
        "mem.l1d_rsfail_per_access":
            sum(result.l1d_rsfails.values()) / accesses,
        "mem.l2_accesses": result.l2_accesses,
        "mem.l2_misses": result.l2_misses,
        "mem.dram_accesses": result.dram_accesses,
        "mem.dram_row_hit_rate": result.dram_row_hit_rate,
        "mem.icnt_flits": result.icnt_flits,
    }


def outcome_counts(outcome) -> dict:
    counts = run_counts(outcome.result)
    counts["core.weighted_speedup"] = outcome.weighted_speedup
    counts["core.antt"] = outcome.antt
    counts["core.fairness"] = outcome.fairness
    return counts


# ----------------------------------------------------------------------
# legs
def leg_rep(args, spans):
    """One timed rep of an sm16 workload: import, build, run."""
    spec = WORKLOADS[args.workload]
    import_program(spans, spec["kind"] == "mix")
    if spec["kind"] == "gpu":
        with spans.span("build"):
            gpu = build_gpu(spec, args.seed)
        with spans.span("run"):
            result = gpu.run(args.cycles)
        from repro.harness.perfbench import result_signature
        counts, sig = run_counts(result), digest(result_signature(result))
    else:
        with spans.span("build"):
            runner = build_runner(args)
        with spans.span("run"):
            outcome = run_dmil(runner, spec, args.cycles)
        from repro.harness.perfbench import outcome_signature
        counts, sig = outcome_counts(outcome), \
            digest(outcome_signature(outcome))
    return {"wall_s": spans.seconds("run"),
            "setup_s": spans.seconds("import") + spans.seconds("build"),
            "counts": counts, "sig": sig}


def leg_prep(args, spans):
    """Fill the runner's disk cache with the iso runs of sm16_cke_dmil
    and record the DMIL-less baseline's weighted speedup."""
    from repro.workloads.mixes import mix
    spec = WORKLOADS[args.workload]
    import_program(spans, True)
    with spans.span("build"):
        runner = build_runner(args)
        the_mix = mix(*spec["kernels"])
    with spans.span("prep.iso"):
        for profile in the_mix.profiles:
            runner.isolated(profile)
    with spans.span("prep.baseline"):
        base = runner.run_mix(the_mix, "even")
    return {"prep_s": sum(s["end"] - s["start"] for s in spans.items),
            "base_ws": base.weighted_speedup}


def leg_import_main(_args, spans):
    """What a CLI user pays before ``main()`` runs."""
    with spans.span("import"):
        import repro.__main__  # noqa: F401
    return {"setup_s": spans.seconds("import")}


def leg_spin(_args, spans, seconds=1.0):
    """A fixed single-thread loop: million iterations per second.  Run
    before and after the workloads, it tells whether the host-speed
    scaling still explains the host (run.py, provenance)."""
    done = 0
    with spans.span("spin"):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for _ in range(100_000):
                pass
            done += 100_000
        elapsed = time.perf_counter() - start
    return {"mops": done / elapsed / 1e6}


def leg_trace(args, spans):
    """The workload's call under cProfile, the fast-vs-reference
    signature check (sm16) and, with ``--micro``, the harness legs."""
    from layers import profile_call
    spec = WORKLOADS[args.workload]
    if spec["kind"] == "gpu":
        import_program(spans, False)

        def call():
            return build_gpu(spec, args.seed).run(args.cycles)
    elif spec["kind"] == "mix":
        import_program(spans, True)

        def call():
            return run_dmil(build_runner(args), spec, args.cycles)
    else:
        argv = json.loads(args.argv)

        def call():
            # a CLI user pays the imports too, so they are profiled
            import repro.__main__ as cli
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
    name = "cli.main" if spec["kind"] == "campaign" else "run"
    with spans.span(name):
        result, wall, shares, outside = profile_call(call)
    out = {"traced_s": wall, "shares": shares, "outside_run_share": outside,
           "exit": result if spec["kind"] == "campaign" else 0}
    if spec["kind"] != "campaign":
        from repro.core.arbiter import SchemeConfig
        from repro.harness.perfbench import result_signature
        scheme = SchemeConfig(mil="dmil") if spec["kind"] == "mix" else None
        sigs = [digest(result_signature(
            build_gpu(spec, args.seed, scheme, reference=ref)
            .run(REFCHECK_CYCLES))) for ref in (False, True)]
        out["refcheck_equal"] = sigs[0] == sigs[1]
    if args.micro:
        out["micro"] = micro_legs(args.micro, spans)
    return out


# ----------------------------------------------------------------------
# harness micro-legs: per-cell costs outside GPU.run, timed from outside
def _median_time(fn, calls):
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def micro_legs(tmp, spans, calls=20, dispatch_calls=5):
    from repro.config import scaled_config
    from repro.harness.parallel import IsoJob, MixJob, run_jobs
    from repro.harness.resilience import CampaignJournal, run_jobs_resilient
    from repro.harness.runner import ExperimentRunner, RunnerSettings
    from repro.workloads.mixes import mix
    from repro.workloads.profiles import get_profile
    config = scaled_config()
    settings = RunnerSettings(iso_cycles=200, curve_cycles=200,
                              concurrent_cycles=1000)
    cache = os.path.join(tmp, "micro-cache")
    # An observed cell, as campaigns with --artifacts journal them.
    outcome = ExperimentRunner(config, settings).run_mix(
        mix("bp", "cd"), "even", obs=True)
    job = MixJob(("bp", "cd"), "even", obs=True)
    out = {}

    journal = CampaignJournal(os.path.join(tmp, "micro-journal.jsonl"))
    journal.reset()
    out["harness.journal_append_s"] = _median_time(
        lambda: journal.record_done(job, outcome), calls)
    with spans.span("journal.load"):
        # one load replays the `calls` entries appended above
        out["harness.journal_load_s"] = _median_time(journal.load, calls)

    blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    out["harness.outcome_pickle_bytes"] = len(blob)
    out["harness.outcome_pickle_s"] = _median_time(
        lambda: pickle.loads(pickle.dumps(
            outcome, protocol=pickle.HIGHEST_PROTOCOL)), calls)

    profile = get_profile("bp")
    ExperimentRunner(config, settings, cache_dir=cache).isolated(profile)
    probes = []
    for _ in range(calls):
        fresh = ExperimentRunner(config, settings, cache_dir=cache)
        start = time.perf_counter()
        fresh.isolated(profile)
        probes.append(time.perf_counter() - start)
    out["harness.cache_probe_s"] = statistics.median(probes)

    # Spawn + pickle cost of each dispatcher: two tiny jobs over two
    # workers, minus the same two jobs run serially in-process.
    jobs = [IsoJob("bp", cycles=200), IsoJob("cd", cycles=200)]

    def dispatch(fn, workers):
        return _median_time(
            lambda: fn(ExperimentRunner(config, settings), jobs,
                       workers=workers), dispatch_calls)
    serial = dispatch(run_jobs, 1)
    out["harness.plain_dispatch_s"] = dispatch(run_jobs, 2) - serial
    out["harness.resilient_dispatch_s"] = \
        dispatch(run_jobs_resilient, 2) - serial
    return out


LEGS = {"rep": leg_rep, "prep": leg_prep, "import-main": leg_import_main,
        "trace": leg_trace, "spin": leg_spin}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("leg", choices=sorted(LEGS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=0)
    parser.add_argument("--iso-cycles", type=int, default=0)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--argv", default=None,
                        help="JSON list: CLI arguments of a traced campaign")
    parser.add_argument("--micro", metavar="TMPDIR", default=None)
    parser.add_argument("--span-parent", default="proc")
    args = parser.parse_args(argv)
    spans = Spans(args.span_parent)
    out = LEGS[args.leg](args, spans)
    out["spans"] = spans.items
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
