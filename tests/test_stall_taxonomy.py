"""The stall-attribution taxonomy: every scheduler issue slot is
classified, the classes are triggerable on demand, and turning
observability on never changes simulation results.

Workload recipes (verified deterministic under seed 3):

* ``st+sv`` (two streaming kernels) — scoreboard waits, LSU-full and,
  under ``rbmi``, arbitration losses;
* ``smil_limits=(1,1)`` — almost everything becomes ``mil_capped``;
* ``smk_quotas=(1,1)`` — the SMK warp-instruction gate dominates;
* single ``cp`` (compute-heavy) — SFU port conflicts (``exec_port``);
* single ``bp`` at 1 TB/SM over a long window — the kernel drains and
  schedulers go ``no_warp``.
"""

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.obs.collector import ObsReport
from repro.obs.stalls import (ISSUED, STALL_BMI_LOSS, STALL_EXEC_PORT,
                              STALL_LSU_FULL, STALL_MIL_CAPPED, STALL_NO_WARP,
                              STALL_SCOREBOARD, STALL_SMK_GATE,
                              format_stall_report)
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile


def observed(kernels, tbs, scheme_kwargs=None, cycles=1500, obs=True):
    cfg = scaled_config()
    launches = make_launches([get_profile(k) for k in kernels], list(tbs),
                             cfg, seed=3)
    gpu = GPU(cfg, launches, SchemeConfig(**(scheme_kwargs or {})), obs=obs)
    result = gpu.run(cycles)
    return result, result.obs


def by_reason(report):
    agg = {}
    for (_sm, _sched, _k, reason), n in report.sched_stalls.items():
        agg[reason] = agg.get(reason, 0) + n
    return agg


class TestInvariants:
    def test_declared_taxonomy_holds_no_duplicate(self):
        """A reason declared twice would be counted once and reported
        twice (the membership tuples index report rows); the scheduler
        and LSU classes share the stall report and the phase series, so
        they must not collide either."""
        from repro.obs.stalls import LSU_STALL_REASONS, SCHED_STALL_REASONS
        from repro.obs.timeline import ADAPT_MECHANISMS
        for members in ((ISSUED, *SCHED_STALL_REASONS, *LSU_STALL_REASONS),
                        ADAPT_MECHANISMS):
            assert len(set(members)) == len(members), members

    @pytest.mark.parametrize("kernels,tbs,scheme_kwargs", [
        (("st", "sv"), (4, 4), {}),
        (("st", "sv"), (4, 4), {"bmi": "rbmi"}),
        (("3m", "bp"), (2, 2), {"smk_quotas": (1, 1)}),
        (("cp",), (4,), {}),
    ])
    def test_outcomes_cover_every_issue_slot(self, kernels, tbs,
                                             scheme_kwargs):
        """issued + all stall classes == cycles x SMs x schedulers,
        exactly — no slot is double-counted or dropped."""
        _result, report = observed(kernels, tbs, scheme_kwargs)
        assert sum(report.sched_stalls.values()) == report.issue_slots()

    def test_lsu_taxonomy_matches_engine_stall_count(self):
        """One taxonomy entry per stalled LSU cycle: the per-resource
        breakdown sums exactly to the engine's lsu_stall_cycles."""
        result, report = observed(("st", "sv"), (4, 4))
        assert result.lsu_stall_cycles > 0
        assert sum(report.lsu_stalls.values()) == result.lsu_stall_cycles

    def test_lsu_stall_share_matches_run_result(self):
        result, report = observed(("st", "sv"), (4, 4))
        assert report.lsu_stall_share() == pytest.approx(
            result.lsu_stall_pct())

    def test_shares_sum_to_one(self):
        _result, report = observed(("st", "sv"), (4, 4))
        assert sum(report.sched_stall_shares().values()) == pytest.approx(1.0)


class TestStallClasses:
    def test_scoreboard_and_lsu_full_on_streaming_mix(self):
        _result, report = observed(("st", "sv"), (4, 4))
        agg = by_reason(report)
        assert agg[ISSUED] > 0
        assert agg[STALL_SCOREBOARD] > 0
        assert agg[STALL_LSU_FULL] > 0

    def test_bmi_loss_under_round_robin_arbitration(self):
        _result, report = observed(("st", "sv"), (4, 4), {"bmi": "rbmi"})
        assert by_reason(report)[STALL_BMI_LOSS] > 0

    def test_mil_capped_dominates_with_static_limit_one(self):
        _result, report = observed(("st", "sv"), (4, 4),
                                   {"mil": "smil", "smil_limits": (1, 1)})
        agg = by_reason(report)
        assert agg[STALL_MIL_CAPPED] > agg.get(STALL_LSU_FULL, 0)
        assert agg[STALL_MIL_CAPPED] > 0

    def test_smk_gate_with_tight_quota(self):
        _result, report = observed(("3m", "bp"), (2, 2),
                                   {"smk_quotas": (1, 1)})
        assert by_reason(report)[STALL_SMK_GATE] > 0

    def test_exec_port_conflicts_on_compute_kernel(self):
        _result, report = observed(("cp",), (4,))
        assert by_reason(report)[STALL_EXEC_PORT] > 0

    def test_no_warp_after_kernel_drains(self):
        _result, report = observed(("bp",), (1,), cycles=6000)
        assert by_reason(report)[STALL_NO_WARP] > 0


class TestObsNeutrality:
    @pytest.mark.parametrize("scheme_kwargs", [
        {},
        {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4), "mil": "dmil"},
        {"bmi": "rbmi", "mil": "gdmil"},
    ], ids=["base", "qbmi-dmil", "rbmi-gdmil"])
    def test_observing_never_changes_results(self, scheme_kwargs):
        plain, _ = observed(("st", "sv"), (2, 2), scheme_kwargs, obs=None)
        watched, report = observed(("st", "sv"), (2, 2), scheme_kwargs,
                                   obs=True)
        assert result_signature(plain) == result_signature(watched)
        assert report is not None
        assert plain.obs is None

    def test_obs_forces_reference_loop(self):
        """The id is historical: observing forces nothing any more.
        ``obs`` leaves the machine switch alone, and the production
        machine's report is the oracle's."""
        cfg = scaled_config()
        reports = {}
        for reference in (False, True):
            launches = make_launches([get_profile("bp")], [2], cfg, seed=3)
            gpu = GPU(cfg, launches, SchemeConfig(), obs=True,
                      reference=reference)
            assert gpu.reference is reference
            reports[reference] = gpu.run(1500).obs
        launches = make_launches([get_profile("bp")], [2], cfg, seed=3)
        assert GPU(cfg, launches, SchemeConfig(), obs=True).reference is False
        assert reports[False].sched_stalls == reports[True].sched_stalls


class TestReportSurface:
    def test_kernel_labels(self):
        _result, report = observed(("st", "sv"), (2, 2), cycles=500)
        assert report.kernel_label(0) == "st#0"
        assert report.kernel_label(1) == "sv#1"
        assert report.kernel_label(9) == "k9"

    def test_format_stall_report_mentions_every_kernel(self):
        _result, report = observed(("st", "sv"), (2, 2))
        text = format_stall_report(report)
        assert "st#0" in text and "sv#1" in text
        assert "issued=" in text

    def test_merged_reports_accumulate(self):
        _r1, a = observed(("st", "sv"), (2, 2), cycles=500)
        _r2, b = observed(("st", "sv"), (2, 2), cycles=500)
        merged = ObsReport.merged([a, b])
        assert merged.cycles == a.cycles + b.cycles
        assert sum(merged.sched_stalls.values()) == merged.issue_slots()
        assert merged.kernel_names == a.kernel_names

    def test_merged_requires_reports(self):
        with pytest.raises(ValueError):
            ObsReport.merged([])

    def test_summary_include_stalls(self):
        result, _report = observed(("st", "sv"), (2, 2), cycles=500)
        plain = result.summary()
        assert not any(k.startswith("stall[") for k in plain)
        rich = result.summary(include_stalls=True)
        stall_keys = [k for k in rich if k.startswith("stall[")]
        assert stall_keys
        assert sum(rich[k] for k in stall_keys) == pytest.approx(1.0)

    def test_report_survives_pickling(self):
        import pickle
        _result, report = observed(("st", "sv"), (2, 2), cycles=500)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.sched_stalls == report.sched_stalls


class TestRunnerGuard:
    def test_dws_rejects_obs(self):
        from repro.harness.runner import ExperimentRunner
        from repro.workloads.mixes import mix
        runner = ExperimentRunner(scaled_config())
        with pytest.raises(ValueError, match="dynamic Warped-Slicer"):
            runner.run_mix(mix("bp", "st"), "dws", cycles=500, obs=True)
