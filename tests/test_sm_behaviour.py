"""Focused SM-level behaviour tests: SMK quota gating, BMI arbitration
effects, MIL gating, and bypass — observed through short live runs."""


from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile


def run(profiles, limits, scheme, cycles=3000, cfg=None):
    cfg = cfg or scaled_config()
    gpu = GPU(cfg, make_launches(profiles, limits, cfg), scheme)
    return gpu, gpu.run(cycles)


class TestSMKGateLive:
    def test_quota_ratio_steers_progress(self):
        """Progress ratios must follow the warp-instruction quotas."""
        fast, slow = get_profile("dc"), get_profile("ks")
        gpu, favour_fast = run([fast, slow], [4, 2],
                               SchemeConfig(smk_quotas=(60, 40)))
        _, favour_slow = run([fast, slow], [4, 2],
                             SchemeConfig(smk_quotas=(20, 80)))

        def ratio(result):
            return (result.kernels[0].warp_insts
                    / max(1, result.kernels[1].warp_insts))

        assert ratio(favour_fast) > 2 * ratio(favour_slow)
        assert gpu.sms[0].bundle.smk_gate.epochs > 0

    def test_single_kernel_unharmed_by_gate(self):
        p = get_profile("dc")
        _, gated = run([p], [4], SchemeConfig(smk_quotas=(100,)))
        _, free = run([p], [4], SchemeConfig())
        assert gated.ipc(0) > 0.8 * free.ipc(0)


class TestMILGateLive:
    def test_limit_one_caps_inflight(self):
        p = get_profile("ks")
        gpu, _ = run([p], [3], SchemeConfig(mil="smil", smil_limits=(1,)))
        # with a cap of 1, the per-SM inflight counter never exceeds it
        for sm in gpu.sms:
            assert sm.kstate[0].inflight_minsts <= 1

    def test_limit_reduces_memory_traffic(self):
        p = get_profile("sv")
        _, free = run([p], [4], SchemeConfig())
        _, capped = run([p], [4], SchemeConfig(mil="smil", smil_limits=(1,)))
        assert capped.kernels[0].mem_requests < free.kernels[0].mem_requests

    def test_dmil_learns_limits_for_memory_kernel(self):
        p = get_profile("ks")
        gpu, _ = run([p], [3], SchemeConfig(mil="dmil"), cycles=6000)
        limits = [lim for sm in gpu.sms for lim in sm.bundle.limiter.limits()]
        assert any(lim is not None for lim in limits), (
            "ks must trip the MILG within the window")


class TestBypassLive:
    def test_bypassed_kernel_takes_no_l1_lines(self):
        bp, ks = get_profile("bp"), get_profile("ks")
        gpu, result = run([bp, ks], [3, 1],
                          SchemeConfig(l1d_bypass=(False, True)))
        for l1 in gpu.memory.l1s:
            occ = l1.tags.occupancy_by_kernel()
            assert occ.get(1, 0) == 0, "bypassed kernel must not occupy L1"
        assert result.l1d_accesses[1] == 0
        assert result.kernels[1].mem_requests > 0


class TestSFUPort:
    def test_sfu_inst_rate_bounded_by_single_port(self):
        cfg = scaled_config()
        p = get_profile("cp")  # sfu_frac 0.35
        _, result = run([p], [8], SchemeConfig(), cycles=4000, cfg=cfg)
        max_sfu = result.cycles * cfg.num_sms
        assert result.kernels[0].sfu_insts <= max_sfu

    def test_slots_are_what_bounds_issue(self):
        """One instruction per scheduler and one SFU instruction per SM
        each cycle: the utilisation denominators follow the scheduler
        count, and the busiest kernels stay inside them."""
        cfg = scaled_config().replace(schedulers_per_sm=2)
        for name in ("st", "cp"):
            p = get_profile(name)
            _, result = run([p], [p.max_tbs_per_sm(cfg)], SchemeConfig(),
                            cycles=2000, cfg=cfg)
            assert result.alu_slots == result.cycles * 2 * cfg.num_sms
            assert result.sfu_slots == result.cycles * cfg.num_sms
            insts = sum(k.warp_insts for k in result.kernels.values())
            assert 0 < result.alu_busy <= insts <= result.alu_slots
            assert result.sfu_busy <= result.sfu_slots
        assert result.sfu_busy > 0


class TestSchedulerPolicyLive:
    def test_lrr_and_gto_both_progress(self):
        p = get_profile("bp")
        for policy in ("gto", "lrr"):
            cfg = scaled_config(scheduler_policy=policy)
            _, result = run([p], [3], SchemeConfig(), cfg=cfg)
            assert result.ipc(0) > 0.5

    def test_policies_differ_in_issue_pattern(self):
        p = get_profile("sv")
        a = run([p], [4], SchemeConfig(),
                cfg=scaled_config(scheduler_policy="gto"))[1]
        b = run([p], [4], SchemeConfig(),
                cfg=scaled_config(scheduler_policy="lrr"))[1]
        assert a.kernels[0].warp_insts != b.kernels[0].warp_insts
