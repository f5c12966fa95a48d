"""Live campaign telemetry: heartbeat bookkeeping and the progress
hook in ``run_jobs`` (exercised on the serial path so the test stays
cheap and sandbox-proof)."""

import io
import tempfile

from repro.config import scaled_config
from repro.harness.parallel import IsoJob, MixJob, campaign_jobs, run_jobs
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.obs.telemetry import CampaignTelemetry, JobHeartbeat
from repro.workloads.mixes import mix
from repro.workloads.profiles import get_profile

QUICK = RunnerSettings(iso_cycles=400, curve_cycles=300,
                       concurrent_cycles=600)


def beat(index=1, total=4, label="mix ws bp+st", duration_s=2.0,
         sim_cycles=1_000_000, cache_hit=False):
    return JobHeartbeat(index=index, total=total, label=label,
                        duration_s=duration_s, sim_cycles=sim_cycles,
                        cache_hit=cache_hit)


class TestJobHeartbeat:
    def test_cycles_per_s(self):
        assert beat(duration_s=2.0, sim_cycles=1_000_000).cycles_per_s == \
            500_000.0

    def test_cached_jobs_report_zero_rate(self):
        assert beat(cache_hit=True).cycles_per_s == 0.0
        assert beat(duration_s=0.0).cycles_per_s == 0.0


class TestCampaignTelemetry:
    def test_counts_and_throughput(self):
        t = CampaignTelemetry(stream=io.StringIO())
        t(beat(index=1, duration_s=2.0, sim_cycles=2_000_000))
        t(beat(index=2, duration_s=2.0, sim_cycles=2_000_000))
        assert t.jobs_done == 2
        assert t.cache_hits == 0
        assert t.cycles_per_s() == 1_000_000.0

    def test_cache_hits_excluded_from_throughput(self):
        t = CampaignTelemetry(stream=io.StringIO())
        t(beat(index=1, duration_s=1.0, sim_cycles=1_000_000))
        t(beat(index=2, duration_s=0.0, sim_cycles=99_000_000,
               cache_hit=True))
        assert t.cache_hits == 1
        # rate reflects only the uncached job
        assert t.cycles_per_s() == 1_000_000.0

    def test_eta_none_before_first_beat(self):
        t = CampaignTelemetry(stream=io.StringIO())
        assert t.eta_s() is None
        t(beat(index=1, total=4))
        eta = t.eta_s()
        assert eta is not None and eta >= 0.0

    def test_beat_lines_written_to_stream(self):
        out = io.StringIO()
        t = CampaignTelemetry(stream=out)
        t(beat(index=1, total=4))
        t(beat(index=2, total=4, cache_hit=True, label="iso bp"))
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert "[  1/4" in lines[0]
        assert "(cache)" in lines[1]

    def test_format_beat_rate_units(self):
        t = CampaignTelemetry(stream=io.StringIO())
        t(beat(duration_s=1.0, sim_cycles=2_000_000))
        assert "Mc/s" in t.format_beat(beat(index=2))
        slow = CampaignTelemetry(stream=io.StringIO())
        slow(beat(duration_s=1.0, sim_cycles=20_000))
        assert "kc/s" in slow.format_beat(beat(index=2))

    def test_summary_line(self):
        t = CampaignTelemetry(stream=io.StringIO())
        t(beat(index=1))
        t(beat(index=2, cache_hit=True))
        text = t.summary()
        assert text.startswith("campaign:")
        assert "2 jobs" in text
        assert "1 cached" in text


class TestRunJobsProgress:
    def test_serial_path_emits_one_beat_per_unique_job(self):
        runner = ExperimentRunner(scaled_config(), QUICK)
        sink = CampaignTelemetry(stream=io.StringIO())
        jobs = [IsoJob("bp"), MixJob(("bp", "st"), "ws"), IsoJob("bp")]
        results = run_jobs(runner, jobs, workers=1, progress=sink)
        assert len(results) == 3
        assert len(sink.heartbeats) == 2  # duplicate IsoJob deduped
        assert {b.index for b in sink.heartbeats} == {1, 2}
        assert all(b.total == 2 for b in sink.heartbeats)
        assert all(not b.cache_hit for b in sink.heartbeats)
        assert all(b.duration_s > 0 for b in sink.heartbeats)

    def test_warm_rerun_flags_cache_hits(self):
        runner = ExperimentRunner(scaled_config(), QUICK)
        run_jobs(runner, [IsoJob("bp")], workers=1)
        sink = CampaignTelemetry(stream=io.StringIO())
        run_jobs(runner, [IsoJob("bp")], workers=1, progress=sink)
        assert len(sink.heartbeats) == 1
        assert sink.heartbeats[0].cache_hit

    def test_observed_campaign_jobs_carry_reports(self):
        runner = ExperimentRunner(scaled_config(), QUICK)
        jobs = campaign_jobs([mix("bp", "st")], ["ws"], obs=True)
        assert all(job.obs for job in jobs)
        outcomes = run_jobs(runner, jobs, workers=1)
        assert outcomes[0].result.obs is not None
        report = outcomes[0].result.obs
        assert sum(report.sched_stalls.values()) == report.issue_slots()


class TestCampaignProgress:
    """``run_campaign_resilient`` feeds one callback two batches: the
    shared isolated runs, then the grid."""

    def campaign(self, workers, cache_dir=None, runner=None, **kwargs):
        from repro.harness.resilience import PLAIN, run_campaign_resilient
        runner = runner or ExperimentRunner(scaled_config(), QUICK,
                                            cache_dir=cache_dir)
        kwargs.setdefault("policy", PLAIN)
        sink = CampaignTelemetry(stream=io.StringIO())
        run_campaign_resilient(runner, [mix("bp", "cd")], ["ws"],
                               workers=workers, progress=sink, **kwargs)
        return runner, sink

    def test_beats_count_the_whole_campaign(self):
        """Beats run 1..N against the campaign's N jobs, the grid cell
        last — not 1..n per batch."""
        _runner, sink = self.campaign(workers=1)
        beats = sink.heartbeats
        total = len(beats)
        assert [b.index for b in beats] == list(range(1, total + 1))
        assert {b.total for b in beats} == {total}
        assert beats[-1].label == "mix ws bp+cd"
        assert sink.eta_s() == 0.0

    def test_a_recalled_curve_point_books_no_cycles(self):
        """The max-TB curve point is settled by the isolated run's own
        simulation: its beat is a cache hit of 0 cycles, and the closing
        rate counts only what was simulated."""
        runner, sink = self.campaign(workers=1)
        max_tbs = {k: get_profile(k).max_tbs_per_sm(runner.config)
                   for k in ("bp", "cd")}
        recalled = [b for b in sink.heartbeats
                    if b.label in (f"iso {k} tbs={t} cycles=300"
                                   for k, t in max_tbs.items())]
        assert len(recalled) == 2
        assert all(b.cache_hit and b.sim_cycles == 0 for b in recalled)
        simulated = [b for b in sink.heartbeats if not b.cache_hit]
        assert sink.cycles_per_s() == (
            sum(b.sim_cycles for b in simulated)
            / sum(b.duration_s for b in simulated))
        assert sink.summary().startswith(
            f"campaign: {len(sink.heartbeats)} jobs in ")
        assert ", 2 cached, " in sink.summary()

    def test_a_worker_books_its_recalled_curve_point_as_a_hit(self):
        """Same under a worker pool: the worker that ran the isolated
        run, or read its record from the cache dir, reports the hit."""
        with tempfile.TemporaryDirectory() as cache:
            _runner, sink = self.campaign(workers=2, cache_dir=cache)
        hits = [b for b in sink.heartbeats if b.cache_hit]
        assert hits and all(b.sim_cycles == 0 for b in hits)
        assert all(b.sim_cycles > 0 for b in sink.heartbeats
                   if not b.cache_hit)
        assert ([b.index for b in sink.heartbeats]
                == list(range(1, len(sink.heartbeats) + 1)))

    def test_every_cache_hit_books_no_cycles(self):
        """A warm rerun settles every isolated run before dispatch, and
        a ``--resume`` replays the grid cell from the journal too: each
        of those beats is a cache hit of 0 cycles, like the one a
        worker books for a recalled result."""
        from repro.harness.resilience import ResiliencePolicy
        with tempfile.TemporaryDirectory() as cache:
            runner, _cold = self.campaign(workers=1, cache_dir=cache,
                                          policy=ResiliencePolicy())
            _runner, warm = self.campaign(workers=1, runner=runner)
            fresh = ExperimentRunner(scaled_config(), QUICK, cache_dir=cache)
            _runner, resumed = self.campaign(workers=1, runner=fresh,
                                             resume=True)
        for sink in (warm, resumed):
            hits = [b for b in sink.heartbeats if b.cache_hit]
            assert hits and all(b.sim_cycles == 0 for b in hits)
        assert [b.cache_hit for b in warm.heartbeats[:-1]] \
            == [True] * (len(warm.heartbeats) - 1)
        assert all(b.cache_hit for b in resumed.heartbeats)
        assert resumed.heartbeats[-1].event == "resumed"
