"""Unit tests for the GTO and LRR warp schedulers."""

from repro.sim.engine import KernelLaunch
from repro.sim.scheduler import WarpScheduler
from repro.sim.warp import ThreadBlock, Warp
from repro.workloads.address import StreamPattern
from repro.workloads.kernel import OP_ALU, KernelProfile


def make_warp(age, kernel=0, cinst=5, iters=10, seed=0):
    profile = KernelProfile(
        name=f"k{kernel}", full_name="t", suite="u", kind="C",
        cinst_per_minst=cinst, reqs_per_minst=1, write_frac=0.0,
        threads_per_tb=32, regs_per_thread=8,
        pattern_factory=StreamPattern, iters_per_warp=iters,
    )
    tb = ThreadBlock(0, kernel, profile)
    stream = KernelLaunch(kernel, profile, [1], seed=seed).new_stream(age)
    return Warp(age, kernel, tb, stream, age=age, mlp=2)


def always(*_args):
    return True


class TestGTO:
    def test_prefers_greedy_warp(self):
        sched = WarpScheduler(0, "gto")
        w0, w1 = make_warp(0), make_warp(1)
        sched.add_warp(w0)
        sched.add_warp(w1)
        sched.note_issued(w1)
        sel = sched.select(0, always, always)
        assert sel.warp is w1, "GTO keeps issuing the greedy warp"

    def test_falls_back_to_oldest(self):
        sched = WarpScheduler(0, "gto")
        w0, w1, w2 = make_warp(0), make_warp(1), make_warp(2)
        for w in (w0, w1, w2):
            sched.add_warp(w)
        sched.note_issued(w2)
        w2.ready_at = 100  # greedy warp blocked
        sel = sched.select(0, always, always)
        assert sel.warp is w0, "oldest ready warp comes next"

    def test_skips_gated_warps(self):
        sched = WarpScheduler(0, "gto")
        w0, w1 = make_warp(0, kernel=0), make_warp(1, kernel=1)
        sched.add_warp(w0)
        sched.add_warp(w1)
        sel = sched.select(0, always, always,
                           warp_gated=lambda w: w.kernel_slot == 1)
        assert sel.warp is w1

    def test_removed_greedy_warp_forgotten(self):
        sched = WarpScheduler(0, "gto")
        w0, w1 = make_warp(0), make_warp(1)
        sched.add_warp(w0)
        sched.add_warp(w1)
        sched.note_issued(w1)
        sched.remove_warp(w1)
        sel = sched.select(0, always, always)
        assert sel.warp is w0


class TestLRR:
    def test_rotates_between_ready_warps(self):
        sched = WarpScheduler(0, "lrr")
        warps = [make_warp(i) for i in range(3)]
        for w in warps:
            sched.add_warp(w)
        picked = [sched.select(0, always, always).warp.age for _ in range(3)]
        assert sorted(picked) == [0, 1, 2], "LRR visits every warp"


class TestSelection:
    def test_mem_candidate_carries_compute_fallback(self):
        sched = WarpScheduler(0, "gto")
        # w0's next op is a load (cinst=0); w1 has compute available.
        w0 = make_warp(0, cinst=0)
        w1 = make_warp(1, cinst=5)
        sched.add_warp(w0)
        sched.add_warp(w1)
        sel = sched.select(0, always, always)
        assert sel.is_mem and sel.warp is w0
        assert sel.fallback is w1
        assert sel.fallback_op == OP_ALU

    def test_mem_gated_warp_skipped_for_compute(self):
        sched = WarpScheduler(0, "gto")
        w0 = make_warp(0, cinst=0)   # wants to issue a load
        w1 = make_warp(1, cinst=5)   # compute
        sched.add_warp(w0)
        sched.add_warp(w1)
        sel = sched.select(0, lambda w, op: False, always)
        assert not sel.is_mem
        assert sel.warp is w1

    def test_none_when_nothing_ready(self):
        sched = WarpScheduler(0, "gto")
        w0 = make_warp(0)
        w0.ready_at = 10
        sched.add_warp(w0)
        assert sched.select(0, always, always) is None

    def test_compute_port_gate_respected(self):
        sched = WarpScheduler(0, "gto")
        w0 = make_warp(0, cinst=5)
        sched.add_warp(w0)
        assert sched.select(0, always, lambda op: False) is None


def refuse(*kernels):
    """A callback ``mem_ok`` that closes ``kernels`` (MIL-capped)."""
    return lambda warp, op: warp.kernel_slot not in kernels


class TestIssueStallMemo:
    """The per-kernel issue-stall memo (``_mem_blocked``): set when a
    scan under ``compute_ok=None, warp_gated=None`` finds ready warps
    and issues nothing, to the kernels whose memory instructions it
    refused — whether the LSU was full or MIL capped them."""

    def stalled(self, mem_ok=refuse(0, 2)):
        sched = WarpScheduler(0, "gto")
        warps = [make_warp(0, kernel=0, cinst=0),
                 make_warp(1, kernel=2, cinst=0),
                 make_warp(2, kernel=1, cinst=5)]
        warps[2].ready_at = 7  # compute-headed, latency-blocked
        for warp in warps:
            sched.add_warp(warp)
        assert sched.select(0, mem_ok, None, None) is None
        return sched, warps

    def test_records_the_closed_set_under_a_callback(self):
        sched, _ = self.stalled()
        assert sched._mem_blocked == 0b101
        assert sched._mem_wake == 7

    def test_lsu_full_is_the_all_kernels_case(self):
        sched, _ = self.stalled(mem_ok=None)
        assert sched._mem_blocked == 0b101
        assert sched._mem_wake == 7

    def test_an_open_kernel_issues_instead(self):
        sched = WarpScheduler(0, "gto")
        for age, kernel in enumerate((0, 2)):
            sched.add_warp(make_warp(age, kernel=kernel, cinst=0))
        sel = sched.select(0, refuse(0), None, None)
        assert sel.is_mem and sel.warp.kernel_slot == 2
        assert sched._mem_blocked == 0

    def test_not_set_while_a_port_or_gate_verdict_is_live(self):
        for compute_ok, warp_gated in ((always, None), (None, always)):
            sched = WarpScheduler(0, "gto")
            sched.add_warp(make_warp(0, kernel=0, cinst=0))
            assert sched.select(0, refuse(0), compute_ok, warp_gated) is None
            assert sched._mem_blocked == 0

    def test_not_set_when_nothing_is_latency_ready(self):
        sched = WarpScheduler(0, "gto")
        warp = make_warp(0, cinst=0)
        warp.ready_at = 5
        sched.add_warp(warp)
        assert sched.select(0, None, None, None) is None
        assert sched._mem_blocked == 0 and sched._next_wake == 5

    def test_cleared_by_every_event_that_voids_it(self):
        events = {
            "note_issued": lambda s, w: s.note_issued(w[0]),
            "wake_at": lambda s, w: s.wake_at(3),
            "add_warp": lambda s, w: s.add_warp(make_warp(9, cinst=0)),
            "remove_warp": lambda s, w: s.remove_warp(w[1]),
        }
        for name, event in events.items():
            sched, warps = self.stalled()
            event(sched, warps)
            assert sched._mem_blocked == 0, name
