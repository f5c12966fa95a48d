"""Run-artifact ledger, the `repro compare` regression gate, the HTML
dashboard, and the campaign-telemetry ETA fix."""

import io
import json
import os

import pytest

from repro.__main__ import main
from repro.obs.compare import compare_paths
from repro.obs.dash import render_dashboard
from repro.obs.ledger import (
    ARTIFACT_VERSION,
    INDEX_NAME,
    load_artifact,
    load_artifacts,
    write_artifact,
    write_artifacts,
)
from repro.obs.telemetry import CampaignTelemetry, JobHeartbeat


def fake_artifact(workload="st+sv", scheme="even", total_ipc=2.5,
                  ws=1.6, stall_shares=None):
    """A schema-complete artifact built by hand (no simulation)."""
    return {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "run",
        "workload": workload,
        "mix_class": "MC+MC",
        "scheme": scheme,
        "partition": [1, 1],
        "kernels": workload.split("+"),
        "cycles": 2000,
        "seed": 3,
        "config_fingerprint": "deadbeefdeadbeef",
        "git_sha": None,
        "metrics": {
            "weighted_speedup": ws,
            "antt": 1.3,
            "fairness": 0.8,
            "iso_ipcs": [1.5, 1.4],
            "shared_ipcs": [1.2, 1.3],
            "norm_ipcs": [0.8, 0.93],
            "total_ipc": total_ipc,
            "l1d_miss_rates": [0.4, 0.5],
            "lsu_stall_pct": 31.0,
            "dram_row_hit_rate": 0.62,
        },
        "stall_shares": stall_shares or {"issued": 0.5, "scoreboard": 0.3,
                                         "lsu_full": 0.2},
        "lsu_stall_shares": {"rsfail_mshr": 1.0},
        "phases": [],
    }


class TestLedger:
    def test_round_trip_and_index(self, tmp_path):
        arts = [fake_artifact(scheme="even"),
                fake_artifact(scheme="ws-qbmi+dmil", total_ipc=2.8)]
        paths = write_artifacts(str(tmp_path), arts)
        assert all(os.path.exists(p) for p in paths)
        index = json.loads((tmp_path / INDEX_NAME).read_text())
        assert index["artifact_version"] == ARTIFACT_VERSION
        assert len(index["entries"]) == 2
        loaded = load_artifacts(str(tmp_path))
        assert set(loaded) == {("st+sv", "even"), ("st+sv", "ws-qbmi+dmil")}
        assert loaded[("st+sv", "even")] == arts[0]

    def test_single_file_load(self, tmp_path):
        path = write_artifact(str(tmp_path), fake_artifact())
        loaded = load_artifacts(path)
        assert list(loaded) == [("st+sv", "even")]

    def test_slug_sanitises_scheme_names(self, tmp_path):
        path = write_artifact(str(tmp_path),
                              fake_artifact(scheme="ws-qbmi+dmil"))
        assert "+" not in os.path.basename(path)
        assert os.path.basename(path) == "st-sv__ws-qbmi-dmil.json"

    def test_corrupt_file_tolerated(self, tmp_path):
        write_artifact(str(tmp_path), fake_artifact())
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[1, 2, 3]")
        loaded = load_artifacts(str(tmp_path))
        assert list(loaded) == [("st+sv", "even")]

    def test_stale_version_skipped(self, tmp_path):
        stale = fake_artifact()
        stale["artifact_version"] = ARTIFACT_VERSION + 1
        path = write_artifact(str(tmp_path), stale)
        assert load_artifact(path) is None
        assert load_artifacts(str(tmp_path)) == {}

    def test_missing_keys_rejected(self, tmp_path):
        art = fake_artifact()
        del art["workload"]
        path = str(tmp_path / "partial.json")
        with open(path, "w") as fh:
            json.dump(art, fh)
        assert load_artifact(path) is None


class TestCompare:
    def write_sets(self, tmp_path, ipc_b=2.5, shares_b=None):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(str(dir_a), [fake_artifact()])
        write_artifacts(str(dir_b), [fake_artifact(total_ipc=ipc_b,
                                                   stall_shares=shares_b)])
        return str(dir_a), str(dir_b)

    def test_identical_sets_not_regressed(self, tmp_path):
        dir_a, dir_b = self.write_sets(tmp_path)
        comparison = compare_paths(dir_a, dir_b)
        assert len(comparison.cells) == 1
        assert comparison.geomean_ratio() == pytest.approx(1.0)
        assert not comparison.regressed(2.0)

    def test_injected_regression_detected(self, tmp_path):
        dir_a, dir_b = self.write_sets(tmp_path, ipc_b=2.5 * 0.9)
        comparison = compare_paths(dir_a, dir_b)
        assert comparison.regressed(2.0)
        assert not comparison.regressed(15.0)

    def test_stall_mix_shift_reported(self, tmp_path):
        dir_a, dir_b = self.write_sets(
            tmp_path, shares_b={"issued": 0.4, "scoreboard": 0.3,
                                "lsu_full": 0.3})
        cell = compare_paths(dir_a, dir_b).cells[0]
        reason, delta = cell.top_stall_shift()
        assert reason in ("issued", "lsu_full")
        assert abs(delta) == pytest.approx(10.0)

    def test_no_overlap_counts_as_regressed(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(str(dir_a), [fake_artifact(workload="st+sv")])
        write_artifacts(str(dir_b), [fake_artifact(workload="bp+sv")])
        comparison = compare_paths(str(dir_a), str(dir_b))
        assert comparison.cells == []
        assert comparison.regressed(2.0)
        assert comparison.only_a == [("st+sv", "even")]
        assert comparison.only_b == [("bp+sv", "even")]


class TestCompareCLI:
    def test_identical_exits_zero_with_check(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        write_artifacts(str(dir_a), [fake_artifact()])
        code = main(["compare", str(dir_a), str(dir_a), "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean total-IPC ratio" in out
        assert "ok" in out

    def test_regression_exits_one_only_with_check(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(str(dir_a), [fake_artifact()])
        write_artifacts(str(dir_b), [fake_artifact(total_ipc=2.0)])
        assert main(["compare", str(dir_a), str(dir_b)]) == 0
        assert main(["compare", str(dir_a), str(dir_b), "--check"]) == 1
        assert main(["compare", str(dir_a), str(dir_b), "--check",
                     "--threshold", "25"]) == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_zero_ipc_cell_exits_one_with_check(self, tmp_path, capsys):
        """A cell whose IPC collapsed to zero is a regression however
        well the other cells did: it zeroes the geomean rather than
        dropping out of it."""
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(str(dir_a), [fake_artifact(scheme="even"),
                                     fake_artifact(scheme="ws")])
        write_artifacts(str(dir_b), [fake_artifact(scheme="even"),
                                     fake_artifact(scheme="ws",
                                                   total_ipc=0.0)])
        comparison = compare_paths(str(dir_a), str(dir_b))
        assert comparison.geomean_ratio() == 0.0
        assert comparison.regressed(2.0)
        assert main(["compare", str(dir_a), str(dir_b), "--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_overlap_exits_two(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(str(dir_a), [fake_artifact(workload="st+sv")])
        write_artifacts(str(dir_b), [fake_artifact(workload="bp+sv")])
        assert main(["compare", str(dir_a), str(dir_b)]) == 2


class TestDashboard:
    def artifacts(self, tmp_path, with_phases=False):
        art = fake_artifact()
        if with_phases:
            art["phases"] = [{
                "version": 1, "interval": 256, "cycles": 512, "num_sms": 2,
                "kernel_names": ["st", "sv"],
                "series": {"cycle": [256.0, 512.0], "window": [256.0, 256.0],
                           "dram.bw_util": [0.4, 0.5],
                           "k0.ipc": [1.0, 1.1], "k1.ipc": [0.9, 0.8],
                           "k0.inflight": [3.0, 4.0],
                           "k0.mil_limit": [-1.0, 6.0]},
                "adapt_events": [[300, 0, 0, "mil", None, 6, 12, None],
                                 [400, 0, 1, "qbmi", 0, 4, 0, 3]],
            }]
        directory = tmp_path / "arts"
        write_artifacts(str(directory), [art])
        return str(directory)

    def test_html_is_self_contained(self, tmp_path):
        directory = self.artifacts(tmp_path, with_phases=True)
        html = render_dashboard(load_artifacts(directory).values())
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # No external assets of any kind.
        for needle in ("src=", "href=", "http://", "https://", "@import"):
            assert needle not in html
        assert "st+sv" in html and "even" in html

    def test_dash_cli_writes_file(self, tmp_path, capsys):
        directory = self.artifacts(tmp_path)
        out = tmp_path / "dash.html"
        assert main(["dash", directory, str(out)]) == 0
        text = out.read_text()
        assert "<html" in text and "src=" not in text
        assert str(out) in capsys.readouterr().out

    def test_dash_cli_empty_dir_exits_two(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["dash", str(empty), str(tmp_path / "d.html")]) == 2

    def test_adapt_events_rendered(self, tmp_path):
        directory = self.artifacts(tmp_path, with_phases=True)
        html = render_dashboard(load_artifacts(directory).values())
        assert "rsfails 12" in html


class TestTelemetryEta:
    def beat(self, index, total, duration, cached=False):
        return JobHeartbeat(index=index, total=total, label=f"job {index}",
                            duration_s=duration, sim_cycles=10_000,
                            cache_hit=cached)

    def test_no_heartbeats_no_eta(self):
        telemetry = CampaignTelemetry(stream=io.StringIO())
        assert telemetry.eta_s() is None

    def test_all_cached_reports_no_pace(self):
        """A fully warm rerun must not divide wall-clock ≈ 0 by the done
        count and claim an (absurd) instant ETA from cache hits."""
        telemetry = CampaignTelemetry(stream=io.StringIO())
        for i in (1, 2):
            telemetry(self.beat(i, total=4, duration=0.0, cached=True))
        assert telemetry.eta_s() is None

    def test_uncached_pace_excludes_cache_hits(self):
        telemetry = CampaignTelemetry(stream=io.StringIO())
        telemetry(self.beat(1, total=4, duration=0.0, cached=True))
        telemetry(self.beat(2, total=4, duration=0.5, cached=False))
        telemetry._started -= 1.0  # pretend 1s of wall-clock has passed
        eta = telemetry.eta_s()
        # 2 remaining at ~1s per uncached job, not ~0.5s per done job.
        assert eta == pytest.approx(2.0, rel=0.2)

    def test_done_campaign_eta_zero(self):
        telemetry = CampaignTelemetry(stream=io.StringIO())
        telemetry(self.beat(1, total=1, duration=0.2))
        assert telemetry.eta_s() == 0.0

    def test_cache_hits_counted(self):
        telemetry = CampaignTelemetry(stream=io.StringIO())
        telemetry(self.beat(1, total=2, duration=0.0, cached=True))
        telemetry(self.beat(2, total=2, duration=0.4))
        assert telemetry.cache_hits == 1
        assert telemetry.jobs_done == 2


class TestCampaignArtifacts:
    def test_parallel_campaign_emits_artifacts_and_phases(self, tmp_path):
        """End to end across the worker boundary: a 2-worker campaign
        with the phase sampler on ships phase records back through
        pickling, stays bit-identical to the serial unobserved loop,
        and the parent writes one artifact per cell plus the index."""
        from repro.config import scaled_config
        from repro.harness.perfbench import outcome_signature
        from repro.harness.resilience import PLAIN, run_campaign_resilient
        from repro.harness.runner import ExperimentRunner, RunnerSettings
        from repro.workloads.mixes import WorkloadMix
        from repro.workloads.profiles import get_profile

        settings = RunnerSettings(iso_cycles=600, curve_cycles=400,
                                  concurrent_cycles=800)
        mixes = [WorkloadMix((get_profile("st"), get_profile("sv")))]
        schemes = ["ws", "ws-dmil"]
        arts = tmp_path / "arts"

        sampled_runner = ExperimentRunner(
            scaled_config(), settings, cache_dir=str(tmp_path / "sampled"))
        sampled, _report = run_campaign_resilient(
            sampled_runner, mixes, schemes, policy=PLAIN, workers=2,
            phase_interval=128, artifacts_dir=str(arts))

        plain_runner = ExperimentRunner(
            scaled_config(), settings, cache_dir=str(tmp_path / "plain"))
        plain = [plain_runner.run_mix(mix, scheme)
                 for mix in mixes for scheme in schemes]

        for s, p in zip(sampled, plain):
            assert outcome_signature(s) == outcome_signature(p)
        for outcome in sampled:
            assert len(outcome.result.obs.phases) == 1
            assert outcome.result.obs.phases[0]["interval"] == 128

        loaded = load_artifacts(str(arts))
        assert len(loaded) == 2
        assert (arts / INDEX_NAME).exists()
        for (workload, scheme), artifact in loaded.items():
            assert workload == "st+sv"
            assert scheme in schemes
            assert artifact["metrics"]["total_ipc"] > 0
            assert artifact["stall_shares"]
            assert len(artifact["phases"]) == 1

    def test_git_sha_is_the_checkout_head_from_any_cwd(self, tmp_path,
                                                       monkeypatch):
        """A campaign started outside the checkout (CI's examples step
        runs from a temp dir) still records the HEAD of the checkout
        whose code ran, not ``null`` or the cwd's repo."""
        import subprocess

        from repro.config import scaled_config
        from repro.harness.resilience import PLAIN, run_campaign_resilient
        from repro.harness.runner import ExperimentRunner, RunnerSettings
        from repro.workloads.mixes import mix

        here = os.path.dirname(os.path.abspath(__file__))
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        if head.returncode != 0:
            pytest.skip("not run from a git checkout")
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        runner = ExperimentRunner(scaled_config(), RunnerSettings(
            iso_cycles=300, curve_cycles=200, concurrent_cycles=300))
        run_campaign_resilient(runner, [mix("st", "sv")], ["even"],
                               policy=PLAIN, workers=1,
                               artifacts_dir=str(tmp_path / "arts"))
        (artifact,) = load_artifacts(str(tmp_path / "arts")).values()
        assert artifact["git_sha"] == head.stdout.strip()
