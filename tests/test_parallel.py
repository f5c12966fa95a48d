"""Serial vs parallel campaign execution must agree bit for bit.

The dispatcher (``repro.harness.resilience``, job model in
``repro.harness.parallel``) fans grid cells out over worker processes;
every worker rebuilds its own runner.  These tests pin the contract the
harness relies on: worker processes — under the plain policy or under
retries and a journal — are an *execution strategy*, never a different
experiment: outcomes, including every float metric, equal the serial
loop exactly.
"""

import json
import os

import pytest

from repro.config import scaled_config
from repro.harness.parallel import (IsoJob, MixJob, campaign_jobs,
                                    requested_workers, run_jobs,
                                    shared_input_jobs)
from repro.harness.perfbench import outcome_signature
from repro.harness.resilience import (PLAIN, ResiliencePolicy,
                                      default_journal_path,
                                      run_campaign_resilient)
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

SETTINGS = RunnerSettings(iso_cycles=600, curve_cycles=400,
                          concurrent_cycles=800)


def make_runner(tmp_path, sub):
    cache = tmp_path / sub
    cache.mkdir(parents=True, exist_ok=True)
    return ExperimentRunner(scaled_config(), SETTINGS, cache_dir=str(cache))


def make_mixes(pairs):
    return [WorkloadMix(tuple(get_profile(k) for k in pair))
            for pair in pairs]


IDENTITY_CELLS = [
    ((("3m", "bp"),), ["ws"]),
    ((("3m", "bp"), ("st", "sv")), ["ws", "ws-dmil"]),
    ((("hs", "cd"),), ["ws-rbmi", "even"]),
]


@pytest.mark.parametrize("pairs,schemes,policy", [
    pytest.param(pairs, schemes, policy, id=f"pairs{n}-schemes{n}{suffix}")
    for n, (pairs, schemes) in enumerate(IDENTITY_CELLS)
    for suffix, policy in (
        ("", PLAIN),
        ("-retries2+journal", ResiliencePolicy(retries=2, backoff_s=0.01)))
])
def test_campaign_serial_vs_parallel_bit_identical(tmp_path, pairs, schemes,
                                                   policy):
    mixes = make_mixes(pairs)

    serial_runner = make_runner(tmp_path, "serial")
    serial = [serial_runner.run_mix(mix, scheme)
              for mix in mixes for scheme in schemes]

    parallel_runner = make_runner(tmp_path, "parallel")
    parallel, report = run_campaign_resilient(
        parallel_runner, mixes, schemes, policy=policy, workers=2)

    assert len(serial) == len(parallel)
    for s, p in zip(serial, parallel):
        # Full-precision equality, floats included: the parallel path
        # must be the same experiment, not an approximation of it.
        assert outcome_signature(s) == outcome_signature(p)
    assert report.retries == 0 and not report.quarantined
    # The policy, not a second executor, decides whether cells are
    # checkpointed.
    assert os.path.exists(default_journal_path(parallel_runner)) \
        == policy.isolates


def test_single_worker_falls_back_to_serial(tmp_path):
    """workers=1 must not spawn a pool and must match workers>1."""
    mixes = make_mixes((("3m", "bp"),))
    one, _ = run_campaign_resilient(make_runner(tmp_path, "one"), mixes,
                                    ["ws"], policy=PLAIN, workers=1)
    two, _ = run_campaign_resilient(make_runner(tmp_path, "two"), mixes,
                                    ["ws"], policy=PLAIN, workers=2)
    assert [outcome_signature(o) for o in one] \
        == [outcome_signature(o) for o in two]


def test_run_jobs_dedups_and_preserves_order(tmp_path):
    runner = make_runner(tmp_path, "dedup")
    jobs = [IsoJob("3m"), IsoJob("bp"), IsoJob("3m")]
    records = run_jobs(runner, jobs, workers=1)
    assert [r.name for r in records] == ["3m", "bp", "3m"]
    assert records[0] is records[2]  # one execution, fanned back out


def test_prefetch_seeds_caches_for_serial_reuse(tmp_path):
    runner = make_runner(tmp_path, "prefetch")
    mixes = make_mixes((("3m", "bp"),))
    jobs = shared_input_jobs(runner, mixes, ["ws"])
    run_jobs(runner, jobs, workers=2)
    # Every isolated record — normalisation runs and curve points — is
    # now in memory; run_mix must not need to recompute them.
    assert len(runner._iso_cache) == len(set(jobs))
    assert all(runner.recall(get_profile(j.kernel), j.tbs, j.cycles)
               is not None for j in jobs)
    outcome = runner.run_mix(mixes[0], "ws")
    assert outcome.scheme == "ws"


@pytest.mark.parametrize("policy", [PLAIN, ResiliencePolicy()],
                         ids=["plain", "default"])
@pytest.mark.parametrize("with_progress", [False, True])
def test_warm_batch_executes_and_spawns_nothing(tmp_path, monkeypatch,
                                                policy, with_progress):
    """Jobs the parent runner already answers — from memory, or, for a
    fresh runner, from the warm cache dir — are settled before
    dispatch, whether or not anyone is listening."""
    from repro.harness import parallel, resilience
    runner = make_runner(tmp_path, "warm")
    curve = SETTINGS.curve_cycles
    jobs = [IsoJob("3m"), IsoJob("3m", 1, curve), IsoJob("3m", 2, curve),
            IsoJob("bp")]
    cold = run_jobs(runner, jobs, workers=1)

    def boom(*_args, **_kwargs):
        raise AssertionError("a fully warm batch must not execute or spawn")
    monkeypatch.setattr(parallel, "execute_job", boom)
    monkeypatch.setattr(resilience, "_Worker", boom)
    for warm_runner in (runner, make_runner(tmp_path, "warm")):
        beats = []
        warm, report = resilience.run_jobs_resilient(
            warm_runner, jobs, policy=policy, workers=2,
            progress=beats.append if with_progress else None)
        assert warm == cold
        assert all(cell.attempts == 0 for cell in report.cells.values())
        if with_progress:
            assert [b.index for b in beats] == [1, 2, 3, 4]
            assert all(b.cache_hit and b.event == "done" for b in beats)


def test_campaign_jobs_grid_is_mix_major():
    mixes = make_mixes((("3m", "bp"), ("st", "sv")))
    jobs = campaign_jobs(mixes, ["ws", "even"])
    assert jobs == [
        MixJob(("3m", "bp"), "ws", None),
        MixJob(("3m", "bp"), "even", None),
        MixJob(("st", "sv"), "ws", None),
        MixJob(("st", "sv"), "even", None),
    ]


def test_prefetch_jobs_skip_curves_without_ws(tmp_path):
    """Curve points are scheduled for the static Warped-Slicer family
    only: dynamic Warped-Slicer profiles online and reads no curve."""
    runner = make_runner(tmp_path, "jobs")
    mixes = make_mixes((("3m", "bp"),))
    normalisation = [IsoJob("3m"), IsoJob("bp")]
    for schemes in (["even", "smk"], ["dws"], ["dws-dmil", "smk-p+w"]):
        assert shared_input_jobs(runner, mixes, schemes) == normalisation
    jobs = shared_input_jobs(runner, mixes, ["even", "ws-dmil"])
    points = {(j.kernel, j.tbs) for j in jobs[2:]}
    assert jobs[:2] == normalisation
    assert points == {
        (k, t) for k in ("3m", "bp")
        for t in range(1, get_profile(k).max_tbs_per_sm(runner.config) + 1)}
    assert all(j.cycles == SETTINGS.curve_cycles for j in jobs[2:])


def test_job_labels_name_the_budget(tmp_path):
    """A label names every field that tells two jobs of a batch apart,
    so fault-plan globs and quarantine lists can target one job."""
    from repro.harness.parallel import _job_label
    runner = make_runner(tmp_path, "labels")
    jobs = shared_input_jobs(runner, make_mixes((("3m", "bp"),)), ["ws"])
    labels = [_job_label(j) for j in jobs]
    assert len(set(labels)) == len(labels)
    assert labels[0] == "iso 3m"
    assert _job_label(IsoJob("bp", 3, 6000)) == "iso bp tbs=3 cycles=6000"
    assert _job_label(IsoJob("bp", cycles=6000)) == "iso bp cycles=6000"


def test_requested_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
    assert requested_workers() == 3
    for bad in ("not-a-number", "0", "-2"):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_BENCH_WORKERS"):
            requested_workers()
    assert requested_workers(5) == 5
    assert requested_workers(0) == 1


def test_corrupt_disk_cache_record_is_recomputed(tmp_path):
    """A truncated/corrupt cache record must be recomputed, not crash,
    and the recomputed result must match a clean runner's."""
    runner = make_runner(tmp_path, "corrupt")
    profile = get_profile("3m")
    clean = runner.isolated(profile, tbs=1)

    # Corrupt every record on disk, then force a cold in-memory cache.
    cache_dir = runner.cache_dir
    paths = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)
             if f.endswith(".json")]
    assert paths, "isolated() should have written a disk record"
    for path in paths:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")

    reloaded = make_runner(tmp_path, "corrupt")
    rerun = reloaded.isolated(profile, tbs=1)
    assert rerun == clean

    # The bad record was replaced by a valid one.
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)


# ----------------------------------------------------------------------
# campaigns into an existing artifacts dir
def test_campaign_with_artifacts_reuses_hints_bit_identically(tmp_path):
    """End to end: a second campaign pointed at the first campaign's
    artifacts dir still matches serial."""
    mixes = make_mixes([("3m", "bp"), ("st", "sv")])
    schemes = ["ws"]

    first = make_runner(tmp_path, "first")
    arts = tmp_path / "campaign_arts"
    run_campaign_resilient(first, mixes, schemes, policy=PLAIN, workers=2,
                           artifacts_dir=str(arts))
    assert (arts / "ledger.json").exists()

    serial = [make_runner(tmp_path, "serial2").run_mix(mix, "ws")
              for mix in mixes]
    second = make_runner(tmp_path, "second")
    again, _report = run_campaign_resilient(
        second, mixes, schemes, policy=PLAIN, workers=2,
        artifacts_dir=str(arts))
    for s, p in zip(serial, again):
        assert outcome_signature(s) == outcome_signature(p)
