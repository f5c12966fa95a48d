"""Smoke test of the e2e benchmark (about two minutes; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/e2e

``testpaths`` in pyproject.toml keeps it out of the tier-1 suite.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import exact_counts  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two ``--quick`` runs of the whole benchmark at one seed."""
    reports = []
    for i in range(2):
        out = tmp_path_factory.mktemp("e2e") / f"quick{i}.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--quick",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        with open(out) as fh:
            reports.append((json.load(fh), proc.stdout))
    return reports


def test_declared_names_are_well_formed(declared):
    names = [d["name"] for group in ("workloads", "end_to_end", "per_layer")
             for d in declared[group]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert declared["paths"] == ["benchmarks/e2e"]


def test_every_declared_metric_is_emitted(declared, quick_runs):
    report, stdout = quick_runs[0]
    printed = {tuple(line.split()[:2]) for line in stdout.splitlines()
               if line and not line.startswith("#")}
    for workload in (w["name"] for w in declared["workloads"]):
        block = report["workloads"][workload]
        assert block["failed"] == 0, block["failures"]
        for group in ("end_to_end", "per_layer"):
            for metric in (d["name"] for d in declared[group]):
                assert metric in block[group], (workload, metric)
                # a metric the workload cannot measure is listed under
                # "na" in the file and left out of the printed lines
                if metric not in block["na"]:
                    assert (workload, metric) in printed
        shares = [v["value"] for k, v in block["per_layer"].items()
                  if k.endswith(".share")]
        assert abs(sum(shares) - 1.0) < 1e-6


def test_counts_repeat_exactly(quick_runs):
    (first, _), (second, _) = quick_runs
    for workload, block in first["workloads"].items():
        assert exact_counts(block) == \
            exact_counts(second["workloads"][workload]), workload
        assert block["end_to_end"]["dmil_gap_pp"]["value"] == \
            second["workloads"][workload]["end_to_end"]["dmil_gap_pp"]["value"]
