"""Integration tests for the SM and the top-level GPU engine."""

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.sim.engine import GPU, KernelLaunch, make_launches
from repro.workloads.profiles import get_profile


def run_gpu(profiles, tb_limits, scheme=None, cycles=2000, cfg=None, **kwargs):
    cfg = cfg or scaled_config()
    launches = make_launches(profiles, tb_limits, cfg)
    gpu = GPU(cfg, launches, scheme or SchemeConfig(), **kwargs)
    return gpu, gpu.run(cycles)


class TestEngineBasics:
    def test_single_kernel_progresses(self):
        gpu, result = run_gpu([get_profile("bp")], [3])
        assert result.kernels[0].warp_insts > 0
        assert result.ipc(0) > 0

    def test_deterministic_across_runs(self):
        a = run_gpu([get_profile("bp"), get_profile("sv")], [2, 2])[1]
        b = run_gpu([get_profile("bp"), get_profile("sv")], [2, 2])[1]
        assert a.ipc(0) == b.ipc(0)
        assert a.ipc(1) == b.ipc(1)
        assert a.l1d_rsfails == b.l1d_rsfails

    def test_instruction_conservation(self):
        """warp_insts == alu + sfu + mem for every kernel."""
        gpu, result = run_gpu([get_profile("cp"), get_profile("sv")], [2, 2],
                              cycles=3000)
        for stats in result.kernels.values():
            assert stats.warp_insts == (
                stats.alu_insts + stats.sfu_insts + stats.mem_insts)

    def test_issue_never_exceeds_scheduler_slots(self):
        cfg = scaled_config()
        gpu, result = run_gpu([get_profile("dc")], [8], cycles=2000, cfg=cfg)
        max_issue = result.cycles * cfg.schedulers_per_sm * cfg.num_sms
        assert result.kernels[0].warp_insts <= max_issue

    def test_tb_accounting_balances(self):
        gpu, result = run_gpu([get_profile("bp")], [3], cycles=6000)
        stats = result.kernels[0]
        assert stats.tbs_launched >= stats.tbs_completed
        resident = sum(sm.kstate[0].tb_count for sm in gpu.sms)
        assert stats.tbs_launched - stats.tbs_completed == resident

    def test_tb_limits_respected(self):
        gpu, _ = run_gpu([get_profile("bp"), get_profile("sv")], [2, 3],
                         cycles=2000)
        for sm in gpu.sms:
            assert sm.kstate[0].tb_count <= 2
            assert sm.kstate[1].tb_count <= 3

    def test_static_resources_never_oversubscribed(self):
        cfg = scaled_config()
        gpu, _ = run_gpu([get_profile("hs"), get_profile("cd")], [2, 4],
                         cycles=2000, cfg=cfg)
        for sm in gpu.sms:
            assert sm._used_threads <= cfg.max_threads_per_sm
            assert sm._used_warps <= cfg.max_warps_per_sm
            assert sm._used_regs <= cfg.registers_per_sm
            assert sm._used_smem <= cfg.smem_per_sm
            assert sm._used_tbs <= cfg.max_tbs_per_sm

    def test_run_is_resumable(self):
        cfg = scaled_config()
        launches = make_launches([get_profile("bp")], [3], cfg)
        gpu = GPU(cfg, launches, SchemeConfig())
        first = gpu.run(1000)
        second = gpu.run(1000)
        assert second.cycles == 2000
        assert second.kernels[0].warp_insts >= first.kernels[0].warp_insts

    def test_collected_result_survives_a_later_run(self):
        """``run`` hands out a snapshot: continuing the simulation must
        not rewrite a result already collected — and the continued run
        still equals one uninterrupted run."""
        from repro.harness.perfbench import result_signature

        def gpu():
            cfg = scaled_config()
            launches = make_launches(
                [get_profile("bp"), get_profile("cd")], [2, 2], cfg)
            return GPU(cfg, launches, SchemeConfig())

        split = gpu()
        head = split.run(600)
        before = (result_signature(head), head.ipc(0), head.ipc(1))
        tail = split.run(200)
        assert (result_signature(head), head.ipc(0), head.ipc(1)) == before
        assert head.kernels[0].warp_insts < tail.kernels[0].warp_insts
        assert result_signature(tail) == result_signature(gpu().run(800))

    def test_global_dmil_window_reaches_every_sm(self):
        """Global DMIL's MILGs are shared: each SM subscribes to their
        window boundary (the last one built used to displace the rest),
        and a boundary ends every SM's sleep."""
        cfg = scaled_config()
        launches = make_launches([get_profile("bp"), get_profile("cd")],
                                 [2, 2], cfg)
        gpu = GPU(cfg, launches, SchemeConfig(mil="gdmil"))
        milgs = gpu.sms[0].bundle.limiter.shared.milgs
        for milg in milgs:
            assert len(milg.on_window) == cfg.num_sms
        for sm in gpu.sms:
            sm._sleep_until = 1 << 30
        milgs[0].on_window()
        assert [sm._sleep_until for sm in gpu.sms] == [0] * cfg.num_sms

    def test_rejects_empty_launches(self):
        with pytest.raises(ValueError):
            GPU(scaled_config(), [], SchemeConfig())

    def test_rejects_nonpositive_cycles(self):
        gpu, _ = run_gpu([get_profile("bp")], [1], cycles=10)
        with pytest.raises(ValueError):
            gpu.run(0)


class TestSpatialMasks:
    def test_masked_kernel_never_runs_on_excluded_sm(self):
        cfg = scaled_config()
        launches = make_launches(
            [get_profile("bp"), get_profile("sv")], [5, 8], cfg,
            sm_masks=[{0}, {1}])
        gpu = GPU(cfg, launches, SchemeConfig())
        gpu.run(2000)
        assert gpu.sms[0].kstate[0].tb_count > 0
        assert 1 not in gpu.sms[0].kstate or gpu.sms[0].kstate.get(1) is None \
            or gpu.sms[0].kstate[1].tb_count == 0
        assert gpu.sms[1].kstate[1].tb_count > 0


class TestTimeline:
    def test_timeline_recording(self):
        gpu, result = run_gpu([get_profile("bp"), get_profile("sv")], [2, 2],
                              cycles=3000, timeline_interval=500)
        insts = result.timeline.get("insts", 0)
        assert len(insts) == 6
        assert sum(insts) == result.kernels[0].warp_insts
        accesses = result.timeline.get("l1d_access", 1)
        assert sum(accesses) > 0


class TestLaunchHelpers:
    def test_make_launches_validates_lengths(self):
        cfg = scaled_config()
        with pytest.raises(ValueError):
            make_launches([get_profile("bp")], [1, 2], cfg)
        with pytest.raises(ValueError):
            make_launches([get_profile("bp")], [[1]], cfg)  # wrong per-SM length

    def test_kernel_launch_warp_indices_monotone(self):
        launch = KernelLaunch(0, get_profile("bp"), [2, 2])
        assert [launch.next_warp_index() for _ in range(3)] == [0, 1, 2]

    def test_kernel_regions_disjoint(self):
        a = KernelLaunch(0, get_profile("bp"), [1, 1])
        b = KernelLaunch(1, get_profile("sv"), [1, 1])
        assert a.base_line != b.base_line
