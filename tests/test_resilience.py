"""Unit coverage for the resilience layer building blocks.

The chaos integration suite (``test_chaos.py``) exercises whole
campaigns under injected faults; these tests pin the contracts of the
individual pieces — picklable :class:`JobError`, how the parent draws
and spends a fault plan, journal round-trips under corruption, the
in-process retry/quarantine loop, the worker-count rule, degraded-run
telemetry and ledger provenance.
"""

import io
import json
import os
import pickle

import pytest

from repro.config import scaled_config
from repro.harness import parallel as par
from repro.harness.perfbench import outcome_signature
from repro.harness.resilience import (WORKER_FAULTS, CampaignJournal,
                                      FaultPlan, FaultSpec, JobError,
                                      Quarantined, ResiliencePolicy,
                                      ResilienceReport, job_key,
                                      run_jobs_resilient)
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.obs.ledger import artifact_from_outcome, write_artifacts
from repro.obs.telemetry import CampaignTelemetry, JobHeartbeat

SETTINGS = RunnerSettings(iso_cycles=600, curve_cycles=400,
                          concurrent_cycles=800)


def make_runner(tmp_path, sub="cache"):
    cache = tmp_path / sub
    cache.mkdir(parents=True, exist_ok=True)
    return ExperimentRunner(scaled_config(), SETTINGS, cache_dir=str(cache))


# ----------------------------------------------------------------------
# JobError: picklable, traceback-carrying worker failures
def test_job_error_pickles_with_full_traceback():
    try:
        raise ValueError("boom inside worker")
    except ValueError as exc:
        err = JobError.from_exception("mix ws st+sv", exc)

    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, JobError)
    assert clone.label == "mix ws st+sv"
    assert clone.original_type == "ValueError"
    # The *formatted* worker stack survives the process boundary.
    assert "boom inside worker" in str(clone)
    assert "Traceback" in clone.formatted
    assert "test_job_error_pickles_with_full_traceback" in clone.formatted


def test_failing_cell_raises_job_error_without_quarantine(tmp_path):
    """One failure type, in-process (workers=1) or from a worker
    process: the plain spelling and an explicit no-quarantine policy
    both raise JobError naming the cell, the original type and the
    traceback."""
    job = par.MixJob(("definitely-not-a-kernel", "bp"))
    policy = ResiliencePolicy(retries=0, quarantine=False)
    for workers in (1, 2):
        with pytest.raises(JobError) as info:
            par.run_jobs(make_runner(tmp_path), [job], workers=workers)
        assert info.value.original_type == "KeyError"
        assert "unknown benchmark" in info.value.formatted
        # Label identifies the failing cell, not just the exception.
        assert info.value.label == "mix ws definitely-not-a-kernel+bp"

        with pytest.raises(JobError) as info:
            run_jobs_resilient(make_runner(tmp_path), [job], policy=policy,
                               workers=workers)
        assert "unknown benchmark" in str(info.value)


# ----------------------------------------------------------------------
# FaultPlan: file format and how the parent spends it
def write_plan_file(path, faults, **extra):
    path.write_text(json.dumps({"version": 1, "faults": faults, **extra}))
    return str(path)


def test_fault_plan_loads_from_file(tmp_path):
    path = write_plan_file(tmp_path / "plan.json", [
        {"id": "k1", "kind": "kill", "match": "mix *", "times": 2},
        {"id": "c1", "kind": "corrupt", "path": "/tmp/x*"}],
        seed=7, state_dir="ignored.state")
    loaded = FaultPlan.from_file(path)
    assert [f.id for f in loaded.faults] == ["k1", "c1"]
    assert loaded.faults[0].times == 2
    assert loaded.faults[1].match == "*"
    assert loaded.faults[1].path == "/tmp/x*"
    assert loaded.fired == {"k1": 0, "c1": 0}
    # The ignored keys left nothing behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_fault_plan_rejects_unknown_kind_and_duplicate_ids():
    with pytest.raises(ValueError):
        FaultSpec(id="x", kind="meteor-strike")
    with pytest.raises(ValueError):
        FaultSpec(id="c", kind="corrupt")  # nothing to garble
    with pytest.raises(ValueError):
        FaultPlan([FaultSpec(id="a", kind="kill"),
                   FaultSpec(id="a", kind="hang")])


def test_fault_plan_rejects_future_version(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"version": 99, "faults": []}))
    with pytest.raises(ValueError):
        FaultPlan.from_file(str(path))


@pytest.mark.parametrize("faults", [
    [{"kind": "kill"}], [{"id": "r1"}], ["r1"],
    [{"id": "r1", "kind": "raise", "times": "twice"}], {"id": "r1"}],
    ids=["no-id", "no-kind", "not-an-object", "bad-times", "not-a-list"])
def test_fault_plan_rejects_malformed_entries(tmp_path, faults):
    with pytest.raises(ValueError, match="malformed fault|must be a list"):
        FaultPlan.from_file(write_plan_file(tmp_path / "plan.json", faults))


def test_an_attempt_draws_exactly_the_faults_it_fires():
    """Plan order, up to the first ``kill`` or ``raise``: that attempt
    ends before it has a result, so an ``unpicklable`` fault drawn
    ahead of it is left unspent."""
    plan = FaultPlan([FaultSpec(id="h1", kind="hang", seconds=1.0),
                      FaultSpec(id="u1", kind="unpicklable"),
                      FaultSpec(id="r1", kind="raise"),
                      FaultSpec(id="k1", kind="kill"),
                      FaultSpec(id="r2", kind="raise", match="iso *")])
    label = "mix ws st+sv"
    drawn = [[f.id for f in plan.draw(label, WORKER_FAULTS)]
             for _ in range(4)]
    assert drawn == [["h1", "r1"], ["k1"], ["u1"], []]
    assert plan.fired == {"h1": 1, "u1": 1, "r1": 1, "k1": 1, "r2": 0}


def test_fault_match_is_label_glob():
    plan = FaultPlan([FaultSpec(id="r1", kind="raise", match="iso *",
                                times=5)])
    assert plan.draw("mix ws st+sv", WORKER_FAULTS) == ()  # no match
    assert [f.id for f in plan.draw("iso bp", WORKER_FAULTS)] == ["r1"]
    assert plan.fired == {"r1": 1}


def test_kill_and_hang_skipped_outside_workers(tmp_path):
    """The in-process loop must never SIGKILL or stall the parent: it
    draws the ``raise`` and leaves the ``kill`` and ``hang`` unspent."""
    plan = FaultPlan([FaultSpec(id="k1", kind="kill", match="mix *"),
                      FaultSpec(id="h1", kind="hang", match="mix *"),
                      FaultSpec(id="r1", kind="raise", match="mix *")])
    job = par.MixJob(("st", "sv"))
    _results, report = run_jobs_resilient(
        make_runner(tmp_path), [job], workers=1, fault_plan=plan,
        policy=ResiliencePolicy(retries=1, backoff_s=0.01))
    assert report.cells[job_key(job)].faults == ["error:FaultInjected"]
    assert plan.fired == {"k1": 0, "h1": 0, "r1": 1}


def test_corrupt_fault_garbles_first_matching_file(tmp_path):
    victim = tmp_path / "data" / "a.json"
    victim.parent.mkdir()
    victim.write_text(json.dumps({"ok": True}))
    plan = FaultPlan([FaultSpec(id="c1", kind="corrupt", times=1,
                                path=str(tmp_path / "data" / "*.json"))])
    plan.corrupt("mix ws st+sv")
    assert victim.read_text() == "{corrupt"
    # times=1: a second firing leaves other files alone.
    other = tmp_path / "data" / "b.json"
    other.write_text("{}")
    plan.corrupt("mix ws st+sv")
    assert other.read_text() == "{}"
    assert plan.fired == {"c1": 1}


# ----------------------------------------------------------------------
# the checkpoint journal
def test_journal_round_trips_results(tmp_path):
    journal = CampaignJournal(str(tmp_path / "j" / "campaign.jsonl"))
    job = par.IsoJob("bp")
    journal.record_done(job, {"metric": 1.25})
    done, quarantined = journal.load()
    assert done == {job_key(job): {"metric": 1.25}}
    assert quarantined == {}


def test_journal_quarantine_superseded_by_later_done(tmp_path):
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    job = par.MixJob(("st", "sv"))
    journal.record_quarantine(job, ["worker-crash", "worker-crash"])
    done, quarantined = journal.load()
    assert quarantined == {job_key(job): ["worker-crash", "worker-crash"]}
    # The resumed run finished the cell: done wins.
    journal.record_done(job, "result")
    done, quarantined = journal.load()
    assert done == {job_key(job): "result"}
    assert quarantined == {}


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    good, bad = par.IsoJob("bp"), par.IsoJob("st")
    journal.record_done(good, "good-result")
    journal.record_done(bad, "bad-result")
    lines = open(journal.path).read().splitlines()
    # Garble the second entry's blob and tear a trailing line — a crash
    # mid-append can leave exactly this shape on disk.
    lines[1] = lines[1].replace('"blob": "', '"blob": "XX')
    with open(journal.path, "w") as fh:
        fh.write(lines[0] + "\n" + lines[1] + "\n")
        fh.write("not json at all\n")
        fh.write(lines[0][:40])  # torn tail, no newline
    done, _ = journal.load()
    assert done == {job_key(good): "good-result"}


def test_journal_rejects_tampered_blob_by_fingerprint(tmp_path):
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    job = par.IsoJob("bp")
    journal.record_done(job, "original")
    entry = json.loads(open(journal.path).read())
    import base64
    entry["blob"] = base64.b64encode(
        pickle.dumps("tampered")).decode("ascii")  # sha no longer matches
    with open(journal.path, "w") as fh:
        fh.write(json.dumps(entry) + "\n")
    done, _ = journal.load()
    assert done == {}


def test_journal_skips_other_versions(tmp_path):
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    job = par.IsoJob("bp")
    journal.record_done(job, "v1-result")
    entry = json.loads(open(journal.path).read())
    entry["v"] = 99
    with open(journal.path, "w") as fh:
        fh.write(json.dumps(entry) + "\n")
    done, _ = journal.load()
    assert done == {}


def test_journal_reset_drops_previous_campaign(tmp_path):
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    journal.record_done(par.IsoJob("bp"), "stale")
    journal.reset()
    assert journal.load() == ({}, {})
    journal.reset()  # idempotent on a missing file


# ----------------------------------------------------------------------
# policy arithmetic
def test_policy_backoff_is_exponential():
    policy = ResiliencePolicy(retries=3, backoff_s=0.1)
    assert policy.max_attempts == 4
    assert policy.backoff_after(1) == pytest.approx(0.1)
    assert policy.backoff_after(2) == pytest.approx(0.2)
    assert policy.backoff_after(3) == pytest.approx(0.4)
    assert ResiliencePolicy(retries=0).max_attempts == 1


def test_worker_count_is_one_rule(monkeypatch):
    from repro.harness.resilience import PLAIN, _worker_count
    isolating = ResiliencePolicy(timeout_s=5.0)
    assert PLAIN.isolates is False
    assert all(p.isolates for p in (isolating, ResiliencePolicy(),
                                    ResiliencePolicy(retries=0)))
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        # 0 = the in-process loop; one requested worker never spawns.
        assert _worker_count(1, 5, PLAIN, False) == 0
        assert _worker_count(1, 5, isolating, True) == 0
        # The plain policy never oversubscribes the host...
        assert _worker_count(4, 3, PLAIN, False) == (0 if cpus == 1 else 3)
        assert _worker_count(4, 1, PLAIN, False) == 0
        # ...while sacrificial workers are real processes even on one
        # CPU, and even for a single pending cell (a timeout must have
        # a process to preempt), never more than there are cells.
        assert _worker_count(4, 3, isolating, False) == 3
        assert _worker_count(2, 1, isolating, False) == 1
        assert _worker_count(2, 1, PLAIN, True) == 1  # fault plan set
        # No explicit request: the CPU count.
        assert _worker_count(None, 20, isolating, False) \
            == (0 if cpus == 1 else cpus)


# ----------------------------------------------------------------------
# in-process execution: retry, quarantine, report
def test_serial_retry_recovers_and_stays_bit_identical(tmp_path):
    baseline = make_runner(tmp_path, "baseline")
    want = par.execute_job(baseline, par.MixJob(("st", "sv")))

    plan = FaultPlan([FaultSpec(id="r1", kind="raise",
                                match="mix ws st+sv", times=1)])

    runner = make_runner(tmp_path, "faulted")
    policy = ResiliencePolicy(retries=2, backoff_s=0.01)
    results, report = run_jobs_resilient(
        runner, [par.MixJob(("st", "sv"))], policy=policy, workers=1,
        fault_plan=plan)
    assert outcome_signature(results[0]) == outcome_signature(want)
    assert report.retries == 1
    cell = report.cells[job_key(par.MixJob(("st", "sv")))]
    assert cell.attempts == 2
    assert cell.faults == ["error:FaultInjected"]
    assert not cell.quarantined


def test_serial_quarantine_after_budget(tmp_path):
    plan = FaultPlan([FaultSpec(id="r1", kind="raise", match="mix *",
                                times=99)])
    runner = make_runner(tmp_path)
    results, report = run_jobs_resilient(
        runner, [par.MixJob(("st", "sv")), par.IsoJob("bp")],
        policy=ResiliencePolicy(retries=1, backoff_s=0.01), workers=1,
        fault_plan=plan)
    # The poisoned mix is quarantined; the iso cell still completes.
    assert isinstance(results[0], Quarantined)
    assert results[0].label == "mix ws st+sv"
    assert "error:FaultInjected" in results[0].faults
    assert not isinstance(results[1], Quarantined)
    assert report.quarantined == ["mix ws st+sv"]


def test_faults_travel_with_the_job(tmp_path):
    """The parent draws an attempt's faults and sends them with its
    job: the worker fires the planned ``raise`` on the first attempt,
    the retry runs clean, and the plan value records one firing."""
    plan = FaultPlan([FaultSpec(id="r1", kind="raise",
                                match="mix ws st+sv", times=1)])
    seen = []
    run_jobs_resilient(
        make_runner(tmp_path), [par.MixJob(("st", "sv"))],
        policy=ResiliencePolicy(retries=1, backoff_s=0.01), workers=2,
        fault_plan=plan, progress=lambda b: seen.append((b.event, b.fault)))
    assert seen == [("retry", "error:FaultInjected"), ("done", None)]
    assert plan.fired == {"r1": 1}


def test_duplicate_jobs_execute_once(tmp_path):
    runner = make_runner(tmp_path)
    job = par.IsoJob("bp")
    results, report = run_jobs_resilient(runner, [job, job, job],
                                         workers=1)
    assert len(results) == 3
    assert results[0] is results[1] is results[2]
    assert report.cells[job_key(job)].attempts == 1


def test_resume_replays_journal_and_runs_remainder(tmp_path):
    runner = make_runner(tmp_path)
    journal = CampaignJournal(str(tmp_path / "campaign.jsonl"))
    jobs = [par.IsoJob("bp"), par.IsoJob("st")]
    first, _ = run_jobs_resilient(runner, [jobs[0]], workers=1,
                                  journal=journal)

    fresh = make_runner(tmp_path, "fresh")
    results, report = run_jobs_resilient(fresh, jobs, workers=1,
                                         journal=journal, resume=True)
    # The replayed checkpoint is the pickled original, field for field.
    assert results[0] == first[0]
    assert report.resumed == 1
    assert report.cells[job_key(jobs[0])].resumed
    assert not report.cells[job_key(jobs[1])].resumed


# ----------------------------------------------------------------------
# degraded-run telemetry
def beat(event="done", attempt=1, fault=None, cache_hit=False, index=1):
    return JobHeartbeat(index=index, total=4, label="mix ws st+sv",
                        duration_s=0.5, sim_cycles=800, attempt=attempt,
                        event=event, fault=fault, cache_hit=cache_hit)


def test_telemetry_counts_degradation_events():
    out = io.StringIO()
    tele = CampaignTelemetry(stream=out)
    tele(beat(event="retry", fault="worker-crash"))
    tele(beat(event="done", attempt=2))
    tele(beat(event="resumed", cache_hit=True, index=2))
    tele(beat(event="quarantined", attempt=3, fault="timeout", index=3))
    # Retries are churn, not progress: only terminal events count.
    assert tele.jobs_done == 3
    assert len(tele.heartbeats) == 4
    assert len(out.getvalue().splitlines()) == 4
    # The degradation itself is the resilience report's to count: the
    # closing line names jobs, cache hits and pace only.
    summary = tele.summary()
    assert summary.startswith("campaign: 3 jobs in ")
    assert "1 cached" in summary
    for word in ("retries", "resumed", "quarantined"):
        assert word not in summary


def test_telemetry_formats_degradation_beats():
    tele = CampaignTelemetry(stream=io.StringIO())
    retry = tele.format_beat(beat(event="retry", attempt=1,
                                  fault="worker-crash"))
    assert "!retry: attempt 1 failed (worker-crash)" in retry
    quarantine = tele.format_beat(beat(event="quarantined", attempt=3,
                                       fault="timeout"))
    assert "!quarantined after 3 attempts (timeout)" in quarantine
    resumed = tele.format_beat(beat(event="resumed", cache_hit=True))
    assert "(journal)" in resumed


# ----------------------------------------------------------------------
# ledger provenance
def run_outcome(tmp_path):
    runner = make_runner(tmp_path)
    from repro.workloads.mixes import WorkloadMix
    from repro.workloads.profiles import get_profile
    mix = WorkloadMix((get_profile("st"), get_profile("sv")))
    return runner, runner.run_mix(mix, "ws")


def test_artifact_provenance_only_when_degraded(tmp_path):
    runner, outcome = run_outcome(tmp_path)
    clean = artifact_from_outcome(outcome, runner.config, runner.settings)
    # Fault-free artifacts stay byte-identical to pre-resilience runs:
    # no provenance key unless degradation happened.
    assert "provenance" not in clean
    degraded = artifact_from_outcome(
        outcome, runner.config, runner.settings,
        provenance={"attempts": 2, "resumed": False,
                    "faults": ["worker-crash"]})
    assert degraded["provenance"]["attempts"] == 2


def test_ledger_index_carries_campaign_block(tmp_path):
    runner, outcome = run_outcome(tmp_path)
    art = artifact_from_outcome(outcome, runner.config, runner.settings)
    out = tmp_path / "artifacts"
    write_artifacts(str(out), [art])
    index = json.loads((out / "ledger.json").read_text())
    assert "campaign" not in index
    write_artifacts(str(out), [art],
                    campaign={"retries": 2, "quarantined": [],
                              "resumed": 1, "journal": "campaign-x.jsonl"})
    index = json.loads((out / "ledger.json").read_text())
    assert index["campaign"]["retries"] == 2
    assert index["campaign"]["journal"] == "campaign-x.jsonl"


def test_report_summary_reads_naturally():
    report = ResilienceReport()
    assert report.summary() == "resilience: 0 cells"
    cell = report.cell(par.IsoJob("bp"))
    cell.attempts = 3
    cell.quarantined = True
    assert report.summary() == ("resilience: 1 cells, 2 retries, "
                                "1 quarantined (iso bp)")
