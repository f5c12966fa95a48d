#!/usr/bin/env python3
"""Alternating parent/change pairs of the declared benchmark.

    python scripts/bench_pairs.py PARENT_TREE [--pairs N] [--seed S]
                                  [--workload W]

Runs ``benchmarks/e2e/run.py --trace 0 --out FILE`` alternately in
``PARENT_TREE`` (a checkout of the parent commit, e.g. a ``git clone``
under ``/root/scratch``) and in the checkout this script sits in — the
side that goes first flips every pair — and prints, per (workload,
end-to-end metric): the parent's median and the distance between the
quartiles of its runs, the change's median, the delta with the parent
as base, the pairs the change won (ties count for neither) and a
verdict against the bound ``BENCHMARK.json`` fixes:

* ``same``        every run of both sides read the same value;
* ``WORSE``       the change's median is worse by more than the bound;
* ``better`` / ``worse``  resolved, inside the bound: over at least ten
  pairs that side won nine tenths of them and the medians differ by
  more than the parent's quartile distance (the choosing-metrics rule);
* ``unresolved``  anything else — the spread exceeds the delta, or the
  wins fall short: not a win and not a loss.

It then says, per workload, whether ``sim.sig`` and the failure count
agree across every run.  Exit status 1 when any row is ``WORSE`` or a
signature differs.

The script only calls the benchmark and reads its results JSON
(``workloads[w].end_to_end[m].value``); run it with nothing else
executing, and delete every ``__pycache__`` on both sides first (a
stale ``.pyc`` on one side reads as ``setup_s`` and ``peak_rss_mb``).
One value per side per pair is the benchmark's own median over its
timed reps, so ten pairs take about forty minutes on a 2-core sandbox.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "e2e", "run.py")


def run_side(tree, out, seed, workload):
    """One benchmark run in ``tree``; returns its results JSON."""
    cmd = [sys.executable, os.path.join(tree, RUN_PY), "--trace", "0",
           "--seed", str(seed), "--out", out]
    if workload:
        cmd += ["--workload", workload]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if not os.path.exists(out):
        raise SystemExit(f"error: {' '.join(cmd)} wrote no results "
                         f"(exit {proc.returncode})")
    with open(out) as fh:
        return json.load(fh)


def quartile_distance(samples):
    if len(samples) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def verdict(parent, change, lower_is_better, bound):
    """(pairs the change won, verdict) of one (workload, metric) row."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(set(parent) | set(change)) == 1:
        return wins, "same"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return wins, "WORSE"
    if (len(parent) >= 10
            and abs(c_med - p_med) > quartile_distance(parent)):
        if wins >= 0.9 * len(parent):
            return wins, "better"
        if losses >= 0.9 * len(parent):
            return wins, "worse"
    return wins, "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent_tree", metavar="PARENT_TREE")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    parent_tree = os.path.abspath(args.parent_tree)
    if not os.path.isfile(os.path.join(parent_tree, RUN_PY)):
        parser.error(f"{parent_tree} has no {RUN_PY}")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]

    sides = {"parent": parent_tree, "change": ROOT}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                out = os.path.join(tmp, f"{side}-{pair}.json")
                runs[side].append(run_side(sides[side], out, args.seed,
                                           args.workload))
            print(f"# pair {pair + 1}/{args.pairs} done "
                  f"({order[0]} first)", file=sys.stderr, flush=True)

    print(f"# {args.pairs} alternating pairs, seed {args.seed}, parent "
          f"{parent_tree}; delta base = parent median; iqr = distance "
          "between the quartiles of the parent's runs")
    print(f"{'workload':16} {'metric':12} {'parent':>10} {'iqr':>9} "
          f"{'change':>10} {'delta':>8} {'bound':>6} {'wins':>6}  verdict")
    status = 0
    workloads = list(runs["parent"][0]["workloads"])
    for name in workloads:
        blocks = {side: [r["workloads"][name] for r in runs[side]]
                  for side in sides}
        for decl in declared:
            metric = decl["name"]
            parent, change = (
                [b["end_to_end"][metric]["value"] for b in blocks[side]
                 if metric in b.get("end_to_end", {})] for side in sides)
            if len(parent) != args.pairs or len(change) != args.pairs:
                print(f"{name:16} {metric:12} missing on "
                      f"{args.pairs - min(len(parent), len(change))} runs")
                status = 1
                continue
            wins, word = verdict(
                parent, change, decl["better"] == "lower", decl["bound"])
            p_med, c_med = (statistics.median(parent),
                            statistics.median(change))
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(f"{name:16} {metric:12} {p_med:10.4f} "
                  f"{quartile_distance(parent):9.4f} {c_med:10.4f} "
                  f"{delta:+8.1%} {decl['bound']:6.0%} "
                  f"{wins:3d}/{args.pairs:<2d}  {word}")
            if word == "WORSE":
                status = 1
        sigs = {b.get("sim.sig") for side in sides for b in blocks[side]}
        failed = {side: sum(b["failed"] for b in blocks[side])
                  for side in sides}
        agree = "identical" if len(sigs) == 1 else "DIFFERENT"
        print(f"{name:16} sim.sig {agree} across {2 * args.pairs} runs "
              f"({', '.join(str(s)[:8] for s in sorted(sigs, key=str))}); "
              f"failed: parent {failed['parent']}, change "
              f"{failed['change']}")
        if len(sigs) != 1 or failed["change"] > failed["parent"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
