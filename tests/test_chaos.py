"""Chaos harness: whole campaigns under injected faults.

Each test scripts a deterministic :class:`FaultPlan` — SIGKILL a
worker mid-cell, hang a job past its timeout, poison a cell, corrupt
checkpoints on disk — and asserts the two properties the resilience
layer promises: the campaign *completes*, and the merged results are
bit-identical to a fault-free run.  Faults change the execution story
(retries, quarantines, resumes), never the science.

Real worker processes are spawned and killed here, so the suite rides
under the ``chaos`` marker; it stays in tier-1 (cycle budgets are
tiny) but can be selected alone with ``pytest -m chaos``.
"""

import io
import json
import multiprocessing
import os
import time

import pytest

from repro.config import scaled_config
from repro.harness import resilience
from repro.harness.parallel import IsoJob, _job_label, shared_input_jobs
from repro.harness.perfbench import outcome_signature
from repro.harness.resilience import (FaultPlan, FaultSpec, Quarantined,
                                      ResiliencePolicy,
                                      default_journal_path,
                                      run_campaign_resilient,
                                      run_jobs_resilient)
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.obs.telemetry import CampaignTelemetry
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

pytestmark = pytest.mark.chaos

SETTINGS = RunnerSettings(iso_cycles=600, curve_cycles=400,
                          concurrent_cycles=800)
PAIR = ("st", "sv")
MIX_LABEL = "mix ws st+sv"


def make_runner(path):
    os.makedirs(path, exist_ok=True)
    return ExperimentRunner(scaled_config(), SETTINGS, cache_dir=str(path))


def make_mix():
    return WorkloadMix(tuple(get_profile(k) for k in PAIR))


def write_plan(tmp_path, *specs):
    plan = FaultPlan(list(specs), state_dir=str(tmp_path / "fault-state"))
    return plan.to_file(str(tmp_path / "plan.json"))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Fault-free reference signature for the st+sv / ws campaign."""
    runner = make_runner(tmp_path_factory.mktemp("golden"))
    return outcome_signature(runner.run_mix(make_mix(), "ws"))


def executed_labels(telemetry):
    """Labels of cells that actually ran (checkpoint replays and cache
    hits excluded)."""
    return [b.label for b in telemetry.heartbeats
            if b.event == "done" and not b.cache_hit]


# ----------------------------------------------------------------------
def test_sigkill_worker_mid_campaign_bit_identical(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="k1", kind="kill", match=MIX_LABEL))
    runner = make_runner(tmp_path / "cache")
    artifacts = tmp_path / "artifacts"
    outcomes, report = run_campaign_resilient(
        runner, [make_mix()], ["ws"], workers=2, fault_plan=plan,
        policy=ResiliencePolicy(retries=2, backoff_s=0.05),
        artifacts_dir=str(artifacts))

    # The kill struck (claim marker on disk), the cell retried, and the
    # merged outcome is the fault-free one bit for bit.
    assert FaultPlan.from_file(plan).fired("k1") == 1
    assert report.retries >= 1
    cell = next(c for c in report.cells.values() if c.label == MIX_LABEL)
    assert "worker-crash" in cell.faults
    assert outcome_signature(outcomes[0]) == golden

    # Degradation is on the record: per-cell provenance in the artifact,
    # campaign-level accounting in the ledger index.
    index = json.loads((artifacts / "ledger.json").read_text())
    assert index["campaign"]["retries"] == report.retries
    assert index["campaign"]["quarantined"] == []
    blobs = [json.loads(p.read_text()) for p in artifacts.glob("*.json")
             if p.name != "ledger.json"]
    degraded = [b for b in blobs if "provenance" in b]
    assert degraded and degraded[0]["provenance"]["attempts"] >= 2


def test_hung_job_killed_at_timeout_and_retried(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="h1", kind="hang", match=MIX_LABEL,
                                seconds=60.0))
    runner = make_runner(tmp_path / "cache")
    outcomes, report = run_campaign_resilient(
        runner, [make_mix()], ["ws"], workers=2, fault_plan=plan,
        policy=ResiliencePolicy(timeout_s=3.0, retries=2, backoff_s=0.05))

    cell = next(c for c in report.cells.values() if c.label == MIX_LABEL)
    assert "timeout" in cell.faults
    assert report.retries >= 1
    assert outcome_signature(outcomes[0]) == golden


def test_unpicklable_result_retried_bit_identical(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="u1", kind="unpicklable",
                                match=MIX_LABEL))
    runner = make_runner(tmp_path / "cache")
    outcomes, report = run_campaign_resilient(
        runner, [make_mix()], ["ws"], workers=2, fault_plan=plan,
        policy=ResiliencePolicy(retries=2, backoff_s=0.05))
    assert report.retries >= 1
    assert outcome_signature(outcomes[0]) == golden


# ----------------------------------------------------------------------
def test_resume_after_mid_campaign_kill_runs_only_unfinished(tmp_path,
                                                             golden):
    """Interrupted campaign: the journal's checkpoint is torn and one
    isolated record on disk is garbled.  Resume must re-run exactly the
    unproven remainder and still merge bit-identically."""
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    run_campaign_resilient(runner, [make_mix()], ["ws"], workers=2)

    journal_path = default_journal_path(runner)
    lines = open(journal_path).read().splitlines()
    assert len(lines) == 1  # the one grid cell; isolated runs are iso-*.json
    assert json.loads(lines[0])["label"] == MIX_LABEL

    # Simulate dying mid-campaign: corrupt the mix checkpoint in place,
    # and garble one curve point's disk-cache record so the re-run
    # cannot shortcut through a poisoned cache either.
    with open(journal_path, "w") as fh:
        fh.write(lines[0].replace('"blob": "', '"blob": "XX', 1) + "\n")
    point = runner._disk_path(runner._iso_key("st", 1, SETTINGS.curve_cycles))
    assert os.path.exists(point)
    with open(point, "w") as fh:
        fh.write("{not json")

    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    telemetry = CampaignTelemetry(stream=io.StringIO())
    outcomes, report = run_campaign_resilient(
        fresh, [make_mix()], ["ws"], workers=2, resume=True,
        progress=telemetry)

    ran = executed_labels(telemetry)
    assert sorted(ran) == sorted(
        [MIX_LABEL, f"iso st tbs=1 cycles={SETTINGS.curve_cycles}"])
    assert report.resumed == 0  # the only checkpoint was torn
    assert outcome_signature(outcomes[0]) == golden


def test_journal_holds_grid_cells_and_resume_rebuilds_isolated_runs(
        tmp_path):
    """A resilient campaign journals exactly its grid cells: isolated
    runs are durable as ``iso-*.json`` only.  A resume after every such
    record is deleted simulates the isolated runs again, replays the
    cells and returns the cold outcomes."""
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    mixes, schemes = [make_mix()], ["ws", "even"]
    cold, _ = run_campaign_resilient(runner, mixes, schemes, workers=1)
    entries = [json.loads(line)
               for line in open(default_journal_path(runner))]
    assert [e["label"] for e in entries] == [MIX_LABEL, "mix even st+sv"]

    records = sorted(p.name for p in cache.glob("iso-*.json"))
    for name in records:
        (cache / name).unlink()
    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    telemetry = CampaignTelemetry(stream=io.StringIO())
    again, report = run_campaign_resilient(
        fresh, mixes, schemes, workers=1, resume=True, progress=telemetry)
    assert report.resumed == 2
    # Each kernel's max-TB curve point is its isolated run's own
    # simulation read at the curve budget: settled without simulating,
    # it beats as a cache hit.
    inputs = shared_input_jobs(fresh, mixes, schemes)
    recalled = [job for job in inputs if job.tbs is not None
                and job.tbs == get_profile(job.kernel).max_tbs_per_sm(
                    fresh.config)]
    assert len(recalled) == 2
    assert sorted(executed_labels(telemetry)) == sorted(
        _job_label(job) for job in inputs if job not in recalled)
    assert sorted(b.label for b in telemetry.heartbeats
                  if b.event == "done" and b.cache_hit) == sorted(
        _job_label(job) for job in recalled)
    assert [outcome_signature(o) for o in again] \
        == [outcome_signature(o) for o in cold]
    assert sorted(p.name for p in cache.glob("iso-*.json")) == records


def test_quarantine_then_resume_completes_campaign(tmp_path, golden):
    """A cell poisoned past its retry budget is quarantined — the
    campaign finishes around it — and a later fault-free ``--resume``
    re-runs only that cell, superseding the quarantine record."""
    plan = write_plan(tmp_path,
                      FaultSpec(id="r1", kind="raise", match=MIX_LABEL,
                                times=99))
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    outcomes, report = run_campaign_resilient(
        runner, [make_mix()], ["ws"], workers=2, fault_plan=plan,
        policy=ResiliencePolicy(retries=1, backoff_s=0.05))
    assert isinstance(outcomes[0], Quarantined)
    assert report.quarantined == [MIX_LABEL]

    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    telemetry = CampaignTelemetry(stream=io.StringIO())
    outcomes, report = run_campaign_resilient(
        fresh, [make_mix()], ["ws"], workers=2, resume=True,
        progress=telemetry)
    # Every isolated run comes back from the cache dir: only the
    # quarantined cell runs, and nothing is replayed from the journal.
    assert executed_labels(telemetry) == [MIX_LABEL]
    assert report.resumed == 0
    assert outcome_signature(outcomes[0]) == golden


def test_corrupt_fault_hits_journal_and_campaign_survives(tmp_path, golden):
    """A ``corrupt`` fault garbling the journal mid-campaign must not
    disturb the in-flight run (the journal is a recovery aid, not a
    dependency): results stay bit-identical, fault-free."""
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    journal_glob = os.path.join(str(cache), "journal", "*.jsonl")
    # The ws cell is journaled first; finishing the even cell garbles
    # the journal before that cell's own checkpoint is appended.
    plan = write_plan(tmp_path,
                      FaultSpec(id="c1", kind="corrupt",
                                match="mix even st+sv", path=journal_glob))
    outcomes, report = run_campaign_resilient(
        runner, [make_mix()], ["ws", "even"], workers=1, fault_plan=plan)
    assert FaultPlan.from_file(plan).fired("c1") == 1
    assert outcome_signature(outcomes[0]) == golden
    assert report.retries == 0
    assert open(default_journal_path(runner)).read().startswith("{corrupt")

    # The garbled journal still loads; resume re-runs whatever the
    # corruption made unprovable and completes identically.
    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    outcomes, _ = run_campaign_resilient(fresh, [make_mix()],
                                         ["ws", "even"], workers=2,
                                         resume=True)
    assert outcome_signature(outcomes[0]) == golden


def test_scheme_sweep_skips_quarantined_cells(tmp_path):
    """The experiment driver stays usable under quarantine: geomeans
    aggregate the surviving cells instead of crashing on a placeholder."""
    from repro.harness.experiments import scheme_sweep
    plan = write_plan(tmp_path,
                      FaultSpec(id="r1", kind="raise", match=MIX_LABEL,
                                times=99))
    runner = make_runner(tmp_path / "cache")
    plan_env = os.environ.get("REPRO_FAULT_PLAN")
    os.environ["REPRO_FAULT_PLAN"] = plan
    try:
        sweep = scheme_sweep(runner, ["ws"], [make_mix()],
                             policy=ResiliencePolicy(retries=0,
                                                     backoff_s=0.01))
    finally:
        if plan_env is None:
            os.environ.pop("REPRO_FAULT_PLAN", None)
        else:
            os.environ["REPRO_FAULT_PLAN"] = plan_env
    # The quarantined mix never entered the sweep — no placeholder to
    # trip geomeans over, just an absent row.
    assert sweep.mixes() == []


# ----------------------------------------------------------------------
# the one-pipe pool: a worker's reply is read before its death or its
# deadline is judged, and a dead idle worker is replaced on dispatch
TINY = [IsoJob("bp", cycles=200), IsoJob("cd", cycles=200),
        IsoJob("st", cycles=200)]
#: no retry: any fault booked against a cell quarantines it.
ONE_ATTEMPT = ResiliencePolicy(retries=0)


@pytest.fixture(scope="module")
def tiny_golden(tmp_path_factory):
    """The fault-free in-process results of ``TINY``."""
    runner = make_runner(tmp_path_factory.mktemp("tiny"))
    return run_jobs_resilient(runner, TINY, workers=1)[0]


def assert_clean(report):
    """Every cell ran once and nothing was booked against it."""
    assert all(cell.attempts == 1 and not cell.faults
               for cell in report.cells.values())


@pytest.fixture
def fork_context(monkeypatch):
    """Workers are forked, so a patched worker loop reaches them."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: fork)


def test_reply_of_a_worker_that_then_exits_is_counted(
        tmp_path, monkeypatch, fork_context, tiny_golden):
    """A worker that exits right after sending its reply leaves a dead
    process and a readable pipe: the reply is the cell's result, not a
    ``worker-crash``.  One cell per worker, so no cell is sent to a
    worker that is on its way out."""
    real = resilience._worker_main

    class ExitAfterReply:
        def __init__(self, conn):
            self.conn = conn

        def recv(self):
            return self.conn.recv()

        def send_bytes(self, blob):
            self.conn.send_bytes(blob)
            os._exit(0)

    monkeypatch.setattr(
        resilience, "_worker_main",
        lambda conn, runner, plan: real(ExitAfterReply(conn), runner, plan))
    got, report = run_jobs_resilient(make_runner(tmp_path), TINY[:2],
                                     policy=ONE_ATTEMPT, workers=2)
    assert got == tiny_golden[:2]
    assert_clean(report)


def test_worker_killed_while_idle_is_replaced_at_next_dispatch(
        tmp_path, monkeypatch, tiny_golden):
    """A worker killed between cells costs nothing: the next cell sent
    its way goes to a fresh process, and a worker that dies with
    nothing left to dispatch is not replaced at all."""
    pools, spawned = [], []

    class RecordedPool(resilience._WorkerPool):
        def __init__(self, *args):
            pools.append(self)
            super().__init__(*args)

        def _spawn(self):
            spawned.append(True)
            return super()._spawn()

    monkeypatch.setattr(resilience, "_WorkerPool", RecordedPool)
    killed = []

    def kill_idle_workers(beat):
        # after the first cell (two remain) and after the last
        if beat.index in (1, beat.total):
            for worker in pools[0].workers:
                if worker.busy is None and worker.proc.is_alive():
                    worker.kill()
                    killed.append(worker.proc.pid)

    got, report = run_jobs_resilient(make_runner(tmp_path), TINY,
                                     policy=ONE_ATTEMPT, workers=2,
                                     progress=kill_idle_workers)
    assert got == tiny_golden
    assert_clean(report)
    first, *last = killed
    final = {w.proc.pid for w in pools[0].workers}
    assert first not in final and set(last) <= final
    assert len(spawned) == 3  # two at start, one for the third cell


def test_reply_in_the_pipe_at_its_deadline_is_a_success(tmp_path,
                                                        tiny_golden):
    """A reply already waiting in the pipe when its worker's deadline
    has passed is read as the cell's result, not killed as a
    ``timeout``."""
    batch = resilience._Batch(
        make_runner(tmp_path), TINY[:1],
        ResiliencePolicy(timeout_s=60.0, retries=0),
        resilience.ResilienceReport(), None, None, 0, 1)
    pool = resilience._WorkerPool(batch, 1, None)
    try:
        pool._dispatch_ready()
        worker = pool.workers[0]
        assert worker.conn.poll(60.0)
        seq, attempt, _deadline = worker.busy
        worker.busy = (seq, attempt, time.monotonic() - 1.0)
        pool._wait_and_settle()
    finally:
        pool.close()
    assert batch.results == {TINY[0]: tiny_golden[0]}
    assert_clean(batch.report)
