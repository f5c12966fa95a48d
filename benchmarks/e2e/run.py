#!/usr/bin/env python3
"""The repository's end-to-end + per-layer benchmark.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--reps N]
                                 [--quick] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                 --trace 0|1          (BENCHMARK.json)

Closed loop, one client: one single-threaded child process at a time.
Every timed rep is a fresh interpreter with a scrubbed environment,
after one untimed warm-up process per workload.  End-to-end metrics are
measured with tracing off; a separate traced process per workload gives
the per-layer numbers.  Every metric is printed as
``workload metric value unit``; README.md explains each of them.
"""

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from layers import LAYERS  # noqa: E402
from spec import (CAMPAIGN_MIXES, CAMPAIGN_SCHEMES,  # noqa: E402
                  PAPER_DMIL_GAIN_PCT, QUICK_DIV, SCRUBBED_ENV, TRACE_DIV,
                  WORKLOADS, campaign_argv)

#: a child that outlives this is killed with its process group.
CHILD_TIMEOUT_S = 170
#: resumes timed against each resilient cold campaign.
RESUMES_PER_PREP = 5
#: stops a workload whose children fail instantly from spinning.
MAX_REPS = 64
#: stall reasons whose shares the campaign artifacts carry.
OBS_ISSUE = ("issued", "scoreboard", "no_warp", "lsu_full", "mil_capped",
             "bmi_loss", "exec_port")
OBS_LSU = ("rsfail_line", "rsfail_mshr", "rsfail_missq")
#: end-to-end metrics that are host time (the rest are simulated or memory).
HOST_TIMES = ("wall_s", "sim_kcps", "setup_s")


def exact_counts(block):
    """The per-layer values of one results-file workload block that are
    simulated or counted, not timed: they repeat exactly from run to run
    of one commit at one seed, and so does ``sim.sig``."""
    counts = {name: entry["value"]
              for name, entry in block.get("per_layer", {}).items()
              if not (entry["unit"] == "s" or name.endswith(".share")
                      or name in ("trace.overhead_x",
                                  "harness.outside_run_share"))}
    counts["sim.sig"] = block.get("sim.sig")
    return counts


def declared():
    """BENCHMARK.json: the one place metric names, units, directions
    and bounds are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# child processes
class Child(collections.namedtuple(
        "Child", "code stdout wall_s rss_mb slowdown")):
    """A finished child: raw wall time, its own peak RSS, and how slow
    the host was while it ran (see hostspeed.py)."""


class Bench:
    """State of one invocation: scratch directory, child environment,
    host-speed probe, span list."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.cpu = hostspeed.pin_to_one_cpu()
        self.probe = hostspeed.Probe()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in SCRUBBED_ENV}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = SRC
        self.spans = []
        self._serial = 0

    def fresh_dir(self, stem):
        self._serial += 1
        return os.path.join(self.tmp, f"{stem}-{self._serial}")

    def child(self, argv, span_name, span_id):
        """Run one child to completion on this process's CPU, probing
        the host's speed and the child's peak RSS meanwhile."""
        out_path = self.fresh_dir("stdout")
        with open(out_path, "w") as out, \
                open(out_path + ".err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.tmp,
                                    start_new_session=True)
            watch = hostspeed.Watch(self.probe, proc.pid)
            watch.start()
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    # hung, or we were interrupted: take the child's
                    # whole process group down and wait for it
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                end = time.perf_counter()
                slowdown, rss_mb = watch.stop()
        code = proc.returncode
        self.spans.append({"id": span_id, "name": span_name, "parent": None,
                           "start": start, "end": end,
                           "host_slowdown": slowdown})
        with open(out_path) as fh:
            stdout = fh.read()
        if code != 0:
            with open(out_path + ".err") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return Child(code, stdout, end - start, rss_mb, slowdown)

    def worker(self, leg, span_id, **options):
        """Run one ``worker.py`` leg; its JSON result, or None."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), leg,
                "--span-parent", span_id]
        for key, value in options.items():
            if value is not None:
                argv += ["--" + key.replace("_", "-"), str(value)]
        child = self.child(argv, "proc." + leg, span_id)
        if child.code != 0:
            return None
        result = json.loads(child.stdout.strip().splitlines()[-1])
        self.spans.extend(result.pop("spans"))
        result["rss_mb"], result["slowdown"] = child.rss_mb, child.slowdown
        return result

    def cli(self, args, span_id):
        """``python -m repro <args>`` as a user would run it."""
        return self.child([sys.executable, "-m", "repro", *args],
                          "cli.main", span_id)


class Measured:
    """What the timed reps of one workload produced."""

    def __init__(self, cycles):
        self.cycles = cycles          # simulated cycles per timed rep
        # times are scaled to the nominal host speed (hostspeed.py);
        # raw_wall and slowdown keep what was actually measured
        self.wall, self.setup, self.rss = [], [], []
        self.raw_wall, self.slowdown = [], []
        self.setup_extra = 0.0        # prep time added to median setup
        self.attempted = 0
        self.failures = []
        self.digests = []             # one per rep; all must be equal
        self.sig = None
        self.counts = {}
        self.gap_pp = PAPER_DMIL_GAIN_PCT   # a zero gain: no DMIL here
        self.state = {}               # directories a traced leg reuses

    def fail(self, message, operations=1):
        self.failures.append((message, operations))

    def timed(self, raw_s, slowdown):
        """Record one timed rep."""
        self.raw_wall.append(raw_s)
        self.slowdown.append(slowdown)
        self.wall.append(raw_s / slowdown)

    @property
    def failed(self):
        return min(self.attempted, sum(n for _m, n in self.failures))

    def check_digests(self, operations=1):
        """Reps of one workload at one seed must agree bit for bit."""
        for digest in self.digests[1:]:
            if digest != self.digests[0]:
                self.fail("output digest differs between reps", operations)

    def end_to_end(self):
        wall = statistics.median(self.wall)
        return {
            "wall_s": wall,
            "sim_kcps": statistics.median(
                self.cycles / w / 1000.0 for w in self.wall),
            "setup_s": statistics.median(self.setup) + self.setup_extra,
            "peak_rss_mb": max(r for r in self.rss if r is not None),
            "dmil_gap_pp": self.gap_pp,
        }


def keep_going(done, timed, min_reps, seconds):
    """The load shape: at least ``min_reps`` timed reps, and more until
    ``seconds`` of timed work (set-up included) have been measured."""
    return done < MAX_REPS and (done < min_reps or timed < seconds)


def dmil_gap(gain_ratio):
    return abs(100.0 * (gain_ratio - 1.0) - PAPER_DMIL_GAIN_PCT)


# ----------------------------------------------------------------------
# sm16_* workloads: the paper's machine through GPU / ExperimentRunner
def measure_sm16(bench, name, seed, min_reps, seconds, quick):
    spec = WORKLOADS[name]
    cycles = spec["cycles"] // (QUICK_DIV if quick else 1)
    m = Measured(cycles)
    options = {"workload": name, "seed": seed, "cycles": cycles}
    timed = 0.0
    if spec["kind"] == "mix":
        # The prep process fills the runner's disk cache (iso runs and
        # compiled traces) and is this workload's untimed warm-up.
        options["cache"] = m.state["cache"] = bench.fresh_dir("cke-cache")
        prep = bench.worker("prep", f"{name}/prep", **options)
        if prep is None:
            m.attempted = 1
            m.fail("prep process failed")
            return m
        m.setup_extra = prep["prep_s"] / prep["slowdown"]
        timed = prep["prep_s"]
        m.rss.append(prep["rss_mb"])
    else:
        warm = dict(options, cycles=max(1, spec["cycles"] // QUICK_DIV))
        bench.worker("rep", f"{name}/warmup", **warm)
    while keep_going(m.attempted, timed, min_reps, seconds):
        rep = bench.worker("rep", f"{name}/rep{m.attempted}", **options)
        m.attempted += 1
        if rep is None:
            m.fail("rep process failed")
            continue
        m.timed(rep["wall_s"], rep["slowdown"])
        m.setup.append(rep["setup_s"] / rep["slowdown"])
        m.rss.append(rep["rss_mb"])
        m.digests.append(rep["sig"])
        m.counts, m.sig = rep["counts"], rep["sig"]
        timed += rep["wall_s"] + rep["setup_s"]
    m.check_digests()
    if spec["kind"] == "mix" and m.counts:
        m.gap_pp = dmil_gap(m.counts["core.weighted_speedup"]
                            / prep["base_ws"])
    return m


# ----------------------------------------------------------------------
# campaign_* workloads: CLI to ledger artifact
def campaign_cycles():
    """Simulated cycles and mix cells of one cold benchmark campaign:
    iso runs, WS curve points and cells at the CLI's fixed budgets."""
    from repro.config import scaled_config
    from repro.harness.runner import RunnerSettings
    from repro.workloads.profiles import get_profile
    settings, config = RunnerSettings(), scaled_config()
    mixes = [spec.split(",") for spec in CAMPAIGN_MIXES]
    kernels = sorted({k for mix in mixes for k in mix})
    points = sum(get_profile(k).max_tbs_per_sm(config) for k in kernels)
    cells = len(mixes) * len(CAMPAIGN_SCHEMES)
    return (len(kernels) * settings.iso_cycles
            + points * settings.curve_cycles
            + cells * settings.concurrent_cycles), cells


def check_artifacts(directory, cells):
    """Load a campaign's artifacts through the ledger; returns them and
    one message per invalid or missing cell."""
    from repro.obs import ledger
    artifacts = ledger.load_artifacts(directory)
    problems = [f"{cells - len(artifacts)} artifact(s) missing or invalid"] \
        * max(0, cells - len(artifacts))
    for key, artifact in artifacts.items():
        for family in ("stall_shares", "lsu_stall_shares"):
            shares = artifact.get(family) or {}
            if abs(sum(shares.values()) - 1.0) > 1e-9:
                problems.append(f"{key}: {family} sum to "
                                f"{sum(shares.values())!r}, not 1")
    return artifacts, problems


def artifact_gap(artifacts):
    """``dmil_gap_pp`` of a campaign: geomean over its mixes of
    WS(ws-dmil) / WS(ws), against the paper's gain."""
    ratios = []
    for (workload, scheme), artifact in artifacts.items():
        base = artifacts.get((workload, "ws"))
        if scheme == "ws-dmil" and base is not None:
            ratios.append(artifact["metrics"]["weighted_speedup"]
                          / base["metrics"]["weighted_speedup"])
    if not ratios:
        return None
    return dmil_gap(statistics.geometric_mean(ratios))


def dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def campaign_counts(bench, artifacts, art_dir, cache_dir, journaled):
    """Exact-repeat work counts of a campaign.  Artifacts carry the
    observed mix cells; a resilient campaign's journal also carries the
    full RunResult of every cell, a plain one does not (those counts
    are reported 0 and listed under "na")."""
    cells = list(artifacts.values())
    counts = {"harness.cells": len(cells),
              "harness.artifact_bytes": dir_bytes(art_dir),
              "harness.iso_records": sum(
                  1 for n in os.listdir(cache_dir) if n.startswith("iso-"))}
    if cells:
        def mean(fn):
            return statistics.fmean(fn(a) for a in cells)
        for reason in OBS_ISSUE:
            counts[f"obs.issue_share.{reason}"] = mean(
                lambda a: a["stall_shares"].get(reason, 0.0))
        for reason in OBS_LSU:
            counts[f"obs.lsu_share.{reason}"] = mean(
                lambda a: a["lsu_stall_shares"].get(reason, 0.0))
        counts["core.weighted_speedup"] = mean(
            lambda a: a["metrics"]["weighted_speedup"])
        counts["core.antt"] = mean(lambda a: a["metrics"]["antt"])
        counts["core.fairness"] = mean(lambda a: a["metrics"]["fairness"])
        counts["sim.ipc"] = mean(lambda a: a["metrics"]["total_ipc"])
        counts["sim.warp_insts"] = sum(
            round(a["metrics"]["total_ipc"] * a["cycles"]) for a in cells)
        counts["mem.dram_row_hit_rate"] = mean(
            lambda a: a["metrics"]["dram_row_hit_rate"])
    if journaled:
        from repro.harness.resilience import CampaignJournal
        from repro.harness.runner import WorkloadOutcome
        journal_dir = os.path.join(cache_dir, "journal")
        path = os.path.join(journal_dir, os.listdir(journal_dir)[0])
        start = time.perf_counter()
        done, _quarantined = CampaignJournal(path).load()
        bench.spans.append({"id": f"journal.load/{len(bench.spans)}",
                            "name": "journal.load", "parent": None,
                            "start": start, "end": time.perf_counter()})
        with open(path) as fh:
            counts["harness.journal_entries"] = sum(1 for _ in fh)
        counts["harness.journal_bytes"] = os.path.getsize(path)
        results = [o.result for o in done.values()
                   if isinstance(o, WorkloadOutcome)]
        accesses = sum(sum(r.l1d_accesses.values()) for r in results)
        counts.update({
            "sim.warp_insts": sum(r.total_insts() for r in results),
            "sim.mem_insts": sum(k.mem_insts for r in results
                                 for k in r.kernels.values()),
            "sim.lsu_stall_cycles": sum(r.lsu_stall_cycles
                                        for r in results),
            "mem.l1d_accesses": accesses,
            "mem.l1d_miss_rate": sum(sum(r.l1d_misses.values())
                                     for r in results) / accesses,
            "mem.l1d_rsfail_per_access": sum(sum(r.l1d_rsfails.values())
                                             for r in results) / accesses,
            "mem.l2_accesses": sum(r.l2_accesses for r in results),
            "mem.l2_misses": sum(r.l2_misses for r in results),
            "mem.dram_accesses": sum(r.dram_accesses for r in results),
            "mem.icnt_flits": sum(r.icnt_flits for r in results),
        })
    return counts


def campaign_run(bench, m, cells, span_id, cache, *extra):
    """One CLI campaign into a fresh artifacts directory.  Returns the
    child, its valid artifacts (none when it failed) and the directory;
    every missing or invalid cell is booked as a failed operation."""
    art_dir = bench.fresh_dir("artifacts")
    child = bench.cli(campaign_argv(cache, art_dir, *extra), span_id)
    m.rss.append(child.rss_mb)
    if child.code != 0:
        m.fail(f"{span_id}: campaign exited {child.code}", cells)
        return child, {}, art_dir
    artifacts, problems = check_artifacts(art_dir, cells)
    for problem in problems:
        m.fail(f"{span_id}: {problem}")
    return child, artifacts, art_dir


def artifacts_sig(artifacts):
    """sha1 over every simulated number the artifacts carry."""
    return hashlib.sha1(json.dumps(
        [[key, a["metrics"], a["stall_shares"], a["lsu_stall_shares"]]
         for key, a in sorted(artifacts.items())],
        sort_keys=True).encode()).hexdigest()


def measure_campaign(bench, name, _seed, min_reps, seconds, quick):
    resilient = WORKLOADS[name]["resilient"]
    cycles, cells = campaign_cycles()
    m = Measured(cycles)
    bench.cli(["schemes"], f"{name}/warmup")   # untimed: imports the CLI
    timed = 0.0
    reps = 0
    last = None
    while keep_going(reps, timed, min_reps, seconds):
        span_id = f"{name}/rep{reps}"
        reps += 1
        cache = bench.fresh_dir("cache")
        if not resilient:
            probe = bench.worker("import-main", span_id + "/import")
            if probe is not None:
                m.setup.append(probe["setup_s"] / probe["slowdown"])
            runs = [campaign_run(bench, m, cells, span_id, cache)]
            reference = None
        else:
            # Set-up is the resilient cold campaign that writes the
            # fsync'd journal; the timed operation replays it.
            cold, found, _dir = campaign_run(
                bench, m, cells, span_id + "/cold", cache, "--retries", "2")
            timed += cold.wall_s
            if not found:
                m.attempted += cells
                continue
            m.setup.append(cold.wall_s / cold.slowdown)
            reference = cold.stdout
            runs = [campaign_run(bench, m, cells, f"{span_id}/resume{i}",
                                 cache, "--resume")
                    for i in range(1 if quick else RESUMES_PER_PREP)]
        for child, artifacts, art_dir in runs:
            m.attempted += cells
            timed += child.wall_s
            if not artifacts:
                continue
            m.timed(child.wall_s, child.slowdown)
            m.digests.append(artifacts_sig(artifacts))
            if reference is not None and child.stdout != reference:
                m.fail(f"{span_id}: resumed table differs from the cold "
                       "run's", cells)
            last = (artifacts, art_dir, cache)
    m.check_digests(cells)
    if last is not None:
        artifacts, art_dir, cache = last
        m.state = {"cache": cache}
        m.counts = campaign_counts(bench, artifacts, art_dir, cache,
                                   resilient)
        m.sig = m.digests[-1]
        m.gap_pp = artifact_gap(artifacts) or m.gap_pp
    return m


# ----------------------------------------------------------------------
# the traced leg: per-layer numbers
def trace_workload(bench, name, seed, m):
    """Run the workload's traced process; returns ``(per-layer metrics,
    names not applicable, failures)``.  ``m`` is the untraced
    measurement whose wall time, counts and directories it builds on."""
    spec = WORKLOADS[name]
    options = {"workload": name, "seed": seed, "micro": bench.tmp}
    if spec["kind"] == "campaign":
        # Resume replays the measured campaign's own journal.
        cache = (m.state["cache"] if spec["resilient"]
                 else bench.fresh_dir("cache"))
        extra = ("--resume",) if spec["resilient"] else ()
        options["argv"] = json.dumps(campaign_argv(
            cache, bench.fresh_dir("artifacts"), *extra))
        traced_cycles = m.cycles
    else:
        options["iso_cycles"] = m.cycles
        options["cache"] = m.state.get("cache")
        traced_cycles = options["cycles"] = max(1, m.cycles // TRACE_DIV)
    traced = bench.worker("trace", f"{name}/trace", **options)
    failures = []
    if traced is None:
        return None, [], ["traced process failed"]
    if traced["exit"] != 0:
        failures.append(f"traced campaign exited {traced['exit']}")
    if not traced.get("refcheck_equal", True):
        failures.append("fast loop and reference loop signatures differ")
    shares = traced["shares"]
    if abs(sum(shares.values()) - 1.0) > 1e-6:
        failures.append("layer shares do not sum to 1")
    wall = statistics.median(m.wall)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = shares[layer]
        metrics[f"{layer}.self_s"] = shares[layer] * wall
    traced_s = traced["traced_s"] / traced["slowdown"]
    metrics["trace.overhead_x"] = ((m.cycles / wall)
                                   / (traced_cycles / traced_s))
    metrics["harness.outside_run_share"] = traced["outside_run_share"]
    metrics.update(traced.get("micro") or {})
    metrics.update(m.counts)
    # Every workload reports every declared name; one it cannot measure
    # (no obs on sm16_*, no journal on a plain campaign) reads 0 and is
    # listed under "na" in the results file.
    per_layer = [d["name"] for d in declared()["per_layer"]]
    missing = [n for n in per_layer if n not in metrics]
    for n in missing:
        metrics[n] = 0
    return metrics, missing, failures


# ----------------------------------------------------------------------
# provenance and noise
def spin_mops(bench, when):
    """The fixed spin loop of ``worker.py spin``, raw and scaled like
    every other time.  If the scaled rate moves between the start and
    the end of a run, the scaling no longer explains the host."""
    result = bench.worker("spin", f"host/spin-{when}")
    if result is None:
        return None
    return {"raw": result["mops"], "host_slowdown": result["slowdown"],
            "scaled": result["mops"] * result["slowdown"]}


def git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, bench):
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "host": {"nproc": os.cpu_count(), "pinned_cpu": bench.cpu,
                 "platform": platform.platform(),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "seed": args.seed, "reps": args.reps, "quick": args.quick,
        "seconds": args.seconds,
        "scrubbed_env": list(SCRUBBED_ENV),
        "scrubbed_env_was_set": [k for k in SCRUBBED_ENV
                                 if k in os.environ],
        "child_env": {"PYTHONHASHSEED": bench.env["PYTHONHASHSEED"],
                      "PYTHONPATH": "src"},
        "load": "closed loop, 1 client, 1 single-threaded process at a "
                "time, campaigns --workers 1",
        "modelled_caches": "start empty on every workload (no simulated "
                           "warm-up window)",
    }


# ----------------------------------------------------------------------
# reporting
def summarise(samples):
    return {"value": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples),
            "samples": list(samples)}


def workload_report(name, m, traced, units):
    """The results-file block of one workload."""
    block = {"seed_applied": WORKLOADS[name]["kind"] != "campaign",
             "attempted": m.attempted, "failed": m.failed,
             "failures": [msg for msg, _n in m.failures],
             "sim.sig": m.sig}
    if m.wall:
        values = m.end_to_end()
        e2e = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        e2e["wall_s"].update(summarise(m.wall))
        e2e["wall_s"]["raw_samples"] = list(m.raw_wall)
        e2e["wall_s"]["host_slowdown"] = list(m.slowdown)
        e2e["sim_kcps"].update(summarise(
            [m.cycles / w / 1000.0 for w in m.wall]))
        e2e["setup_s"]["samples"] = [s + m.setup_extra for s in m.setup]
        e2e["peak_rss_mb"]["samples"] = list(m.rss)
        e2e["failed_share"] = {"value": m.failed / max(1, m.attempted),
                               "unit": "fraction"}
        block["end_to_end"] = e2e
    if traced is not None:
        metrics, missing, _failures = traced
        if metrics is not None:
            block["per_layer"] = {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items() if k in units}
            block["na"] = missing
    return block


def print_block(name, block):
    for group in ("end_to_end", "per_layer"):
        for metric, entry in block.get(group, {}).items():
            if metric in block.get("na", ()):
                continue
            line = f"{name} {metric} {entry['value']:.6g} {entry['unit']}"
            if "n" in entry:
                # too few samples for a tail percentile: median + range
                line += (f"  (median of n={entry['n']}, min "
                         f"{entry['min']:.6g}, max {entry['max']:.6g})")
            print(line)
    if block.get("sim.sig"):
        print(f"{name} sim.sig {block['sim.sig']} sha1")
    for message in block["failures"]:
        print(f"{name} FAILED {message}")


# ----------------------------------------------------------------------
# --compare
def compare(path_a, path_b):
    """Per (workload, end-to-end metric): both medians, B/A and a
    verdict.  Returns 1 when any row is worse."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = {d["name"]: d for d in declared()["end_to_end"]}
    bounds["failed_share"] = {"better": "lower", "bound": 0.0}
    noisy = [path for path, doc in ((path_a, a), (path_b, b))
             if doc["provenance"].get("noisy")]
    for path in noisy:
        print(f"note: {path} was measured while the host moved beyond "
              "what the scaling explains; its time rows are unresolved")
    worse = 0
    print(f"{'workload':16} {'metric':12} {'A':>12} {'B':>12} "
          f"{'B/A':>8}  verdict")
    for name in a["workloads"]:
        ea = a["workloads"][name].get("end_to_end")
        eb = b["workloads"].get(name, {}).get("end_to_end")
        if not ea or not eb:
            continue
        for metric, decl in bounds.items():
            va, vb = ea[metric]["value"], eb[metric]["value"]
            verdict = verdict_of(ea[metric], eb[metric], decl,
                                 bool(noisy) and metric in HOST_TIMES)
            worse += verdict == "worse"
            ratio = f"{vb / va:8.4f}" if va else "       -"
            print(f"{name:16} {metric:12} {va:12.6g} {vb:12.6g} "
                  f"{ratio}  {verdict}")
        ca = exact_counts(a["workloads"][name])
        cb = exact_counts(b["workloads"][name])
        moved = sorted(k for k in ca if ca[k] != cb.get(k))
        print(f"{name:16} exact-repeat counts and sim.sig: "
              + (f"DIFFER in {', '.join(moved)}" if moved
                 else f"{len(ca)} identical"))
    return 1 if worse else 0


def verdict_of(a, b, decl, noisy):
    sign = 1.0 if decl["better"] == "lower" else -1.0
    va, vb = a["value"], b["value"]
    if va == vb:
        return "unchanged"
    delta = sign * (vb - va)            # positive: B is worse
    limit = decl["bound"] * abs(va)
    sa, sb = a.get("samples") or [va], b.get("samples") or [vb]
    overlap = min(sa) <= max(sb) and min(sb) <= max(sa)
    if noisy or (max(quartile_spread(sa), quartile_spread(sb)) > limit
                 and overlap):
        # the runs cannot tell the two sides apart
        return "unresolved"
    if delta > limit:
        return "worse"
    if delta < -limit:
        return "better"
    return "unchanged"


def quartile_spread(samples):
    """Distance between the first and the third quartile."""
    if len(samples) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


# ----------------------------------------------------------------------
def run(args, bench):
    decl = declared()
    units = {d["name"]: d["unit"]
             for d in decl["end_to_end"] + decl["per_layer"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    want_e2e = args.trace in (None, 0)
    want_trace = args.trace in (None, 1)
    contract = args.seconds is not None
    min_reps = 1 if args.quick else args.reps
    if contract:
        min_reps = 3 if want_e2e else 1
    seconds = args.seconds if (contract and want_e2e) else 0
    report = {"schema": 1, "provenance": provenance(args, bench),
              "workloads": {}}
    if not contract:
        spin = {"before": spin_mops(bench, "before")}
    last = None
    print("# times are medians over fresh-process reps, with min and max: "
          "too few samples for a tail percentile")
    for name in names:
        kind = WORKLOADS[name]["kind"]
        measure = measure_campaign if kind == "campaign" else measure_sm16
        m = measure(bench, name, args.seed, min_reps, seconds, args.quick)
        traced = None
        if want_trace and m.wall:
            traced = trace_workload(bench, name, args.seed, m)
            for message in traced[2]:
                m.attempted += 1
                m.fail(message)
        block = workload_report(name, m, traced, units)
        if not want_e2e:
            block.pop("end_to_end", None)
        report["workloads"][name] = block
        print_block(name, block)
        sys.stdout.flush()
        last = block
    if not contract:
        spin["after"] = spin_mops(bench, "after")
        if spin["before"] and spin["after"]:
            spin["drift"] = abs(spin["after"]["scaled"]
                                / spin["before"]["scaled"] - 1.0)
            print(f"host host_spin_mops {spin['before']['scaled']:.4g} "
                  f"Mops/s before, {spin['after']['scaled']:.4g} after "
                  f"(scaled), drift {spin['drift']:.1%}")
        report["provenance"]["host_spin_mops"] = spin
        report["provenance"]["noisy"] = spin.get("drift", 1.0) > 0.10
    origin = min(s["start"] for s in bench.spans)
    report["spans"] = [dict(s, start=s["start"] - origin,
                            end=s["end"] - origin) for s in bench.spans]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = sum(b["failed"] for b in report["workloads"].values())
    if args.workload:
        # the benchmark contract's result line
        group = "per_layer" if args.trace == 1 else "end_to_end"
        wanted = [d["name"] for d in decl[group]]
        metrics = {k: {"value": last[group][k]["value"],
                       "unit": last[group][k]["unit"]}
                   for k in wanted if k in last.get(group, {})}
        correct = failed == 0 and len(metrics) == len(wanted)
        print(json.dumps({"correct": correct,
                          "attempted": max(1, last["attempted"]),
                          "failed": last["failed"], "metrics": metrics}))
        return 0 if correct else 1
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="timed reps per workload (default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="sm16 cycles / 20, 1 rep; a smoke run, no "
                             "bounds apply")
    parser.add_argument("--out", metavar="FILE",
                        help="write the results JSON (metrics, samples, "
                             "provenance, spans)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="benchmark contract: at least 3 reps, and "
                             "more until this much timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "default both")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)     # ledger / journal readers, never timed
    with tempfile.TemporaryDirectory(prefix=".e2e-tmp-", dir=ROOT) as tmp:
        return run(args, Bench(tmp))


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
