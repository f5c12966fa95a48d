"""Integration tests for the SM and the top-level GPU engine."""

import dataclasses

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.sim.engine import GPU, KernelLaunch, make_launches
from repro.workloads.kernel import ReplayStream
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


# ----------------------------------------------------------------------
# Issue-through (docs/PERF.md section 8): an all-hit load finishes in
# ``_issue_mem``; everything else takes the LSU queue.
class OneSM:
    """A single-SM GPU under direct drive: one thread block whose warps
    replay hand-written streams — ``scripts[i]`` is warp *i*'s ``(ops,
    lines)`` in the trace encoding (``l`` load, ``w`` store, ``a`` ALU;
    ``reqs`` lines per memory op) — with the ``hot`` lines resident in
    the L1 up front.  ``co_kernel`` adds a second kernel that never
    launches (UCP only exists with two)."""

    def __init__(self, scripts, hot=(), reqs=1, mlp=2, scheme=None,
                 co_kernel=False, **gpu_kwargs):
        cfg = scaled_config(num_sms=1)
        profile = dataclasses.replace(
            get_profile("dc"), reqs_per_minst=reqs, mlp=mlp,
            threads_per_tb=cfg.warp_size * len(scripts))
        profiles = [profile] + [get_profile("ks")] * co_kernel
        self.gpu = GPU(cfg, make_launches(profiles, [1, 0][:len(profiles)],
                                          cfg),
                       SchemeConfig(**(scheme or {})), **gpu_kwargs)
        self.sm = sm = self.gpu.sms[0]
        self.l1 = sm.l1
        sm.try_launch_tb(0)
        sm.kstate[0].tb_limit = 0  # the scripted block is the only one
        self.warps = sorted((w for s in sm.schedulers for w in s.warps),
                            key=lambda w: w.age)
        for warp, (ops, lines) in zip(self.warps, scripts):
            warp.stream = ReplayStream(profile, ops.encode(), tuple(lines))
        for line in hot:
            self.l1.tags.reserve(line, 0)
            self.l1.tags.fill(line)
        self.cycle = -1

    def tick(self, cycles=1):
        for _ in range(cycles):
            self.cycle += 1
            self.gpu.memory.tick(self.cycle)
            self.sm.tick(self.cycle)

    def issue(self, warp_index=0):
        """The head memory instruction of one warp, straight into
        ``_issue_mem`` — the state right after issue, before any LSU
        tick."""
        warp = self.warps[warp_index]
        self.sm._issue_mem(warp.sched, warp, warp.stream.next_op, 1)

    def lru(self, lines):
        """The LRU clock and each line's stamp (None: not resident)."""
        tags = self.l1.tags
        found = [tags.probe(line) for line in lines]
        return tags._use_clock, [ln and ln.last_use for ln in found]

    def state(self, lines):
        sm, stats = self.sm, self.l1.stats
        kstats = self.gpu.kernel_stats[0]
        return {
            "queue": len(sm.lsu.queue),
            "busy": sm.lsu.busy_cycles,
            "l1": (dict(stats.accesses), dict(stats.hits),
                   dict(stats.misses)),
            "lru": self.lru(lines),
            "insts": (kstats.warp_insts, kstats.mem_insts,
                      kstats.mem_requests, kstats.tbs_completed),
            "inflight": sm.kstate[0].inflight_minsts,
            "resident": sm.kstate[0].resident_warps,
            "warps": [(w.outstanding_loads, w.ready_at, w.stream.next_op)
                      for w in self.warps],
        }


def no_meminst(*args, **kwargs):
    raise AssertionError("a MemInst was built")


def no_memrequest(*args, **kwargs):
    raise AssertionError("a MemRequest was built")


class TestIssueThrough:
    @pytest.mark.parametrize("reqs", (1, 3), ids=("one-line", "multi-line"))
    def test_all_hit_load_finishes_at_issue(self, reqs, monkeypatch):
        lines = list(range(40, 40 + reqs))
        oracle = OneSM([("la", lines)], hot=lines, reqs=reqs,
                       reference=True)
        oracle.tick(2)
        monkeypatch.setattr("repro.sim.sm.MemInst", no_meminst)
        monkeypatch.setattr("repro.sim.lsu.MemRequest", no_memrequest)
        rig = OneSM([("la", lines)], hot=lines, reqs=reqs)
        rig.tick(2)
        assert rig.sm.lsu.insts_through == 1
        # No MemRequest reached the L1, and the LSU queue stayed empty.
        assert not rig.sm.lsu.queue
        assert not rig.l1.miss_queue and len(rig.l1.mshrs) == 0
        state = rig.state(lines)
        assert state == oracle.state(lines)
        assert state["insts"][:3] == (1, 1, reqs) and state["busy"] == 1
        assert rig.l1.stats.hits[0] == reqs
        assert rig.gpu.run(1).sleep["insts_through"] == 1

    def test_mlp_capped_warp_stays_scannable_and_greedy(self):
        """``mlp=1``: the queue path blocks the warp at issue and
        unblocks it at the hit's completion; through, it never leaves
        the scan list, and it issues again the next cycle."""
        script = [("lla", (7, 8))]
        rig = OneSM(script, hot=(7, 8), mlp=1)
        oracle = OneSM(script, hot=(7, 8), mlp=1, reference=True)
        rig.tick(2)
        oracle.tick(2)
        warp = rig.warps[0]
        sched = warp.sched
        assert warp in sched._scan and sched._greedy is warp
        assert sched._gto_dirty or sched._gto_order[0] is warp
        assert warp.outstanding_loads == 0
        assert rig.state((7, 8)) == oracle.state((7, 8))
        rig.tick()
        oracle.tick()
        assert rig.sm.lsu.insts_through == 2
        assert rig.state((7, 8)) == oracle.state((7, 8))

    def test_stream_draining_load_retires_the_warp(self):
        rig = OneSM([("l", (5,))], hot=(5,))
        oracle = OneSM([("l", (5,))], hot=(5,), reference=True)
        rig.tick(2)
        oracle.tick(2)
        assert rig.sm.lsu.insts_through == 1
        assert rig.warps[0].sched is None  # retired
        state = rig.state((5,))
        assert state["resident"] == 0
        assert state["insts"][3] == 1  # the block completed
        assert state == oracle.state((5,))

    def test_draining_load_behind_an_outstanding_one_blocks_the_warp(self):
        """The cold first load is still out when the hot second one
        drains the stream at issue: the warp waits off-scan for the
        fill, which retires it — as on the oracle, cycle for cycle."""
        script = [("ll", (90, 5))]
        rig = OneSM(script, hot=(5,))
        oracle = OneSM(script, hot=(5,), reference=True)
        rig.tick(3)
        oracle.tick(3)
        warp = rig.warps[0]
        assert rig.sm.lsu.insts_through == 1
        assert warp.outstanding_loads == 1 and warp.stream.next_op is None
        assert warp in warp.sched.warps and warp not in warp.sched._scan
        assert rig.state((90, 5)) == oracle.state((90, 5))
        for _ in range(400):
            rig.tick()
            oracle.tick()
            assert rig.state((90, 5)) == oracle.state((90, 5))
            if warp.sched is None:
                break
        assert rig.state((90, 5))["insts"][3] == 1

    #: (why it is excluded, script, resident lines, reqs, rig kwargs)
    EXCLUSIONS = [
        ("store", "wa", (3,), (3,), 1, {}),
        ("bypassed-kernel", "la", (3,), (3,), 1,
         {"scheme": {"l1d_bypass": (True,)}}),
        ("one-cold-line", "la", (3, 4, 5), (3, 5), 3, {}),
        ("wider-than-the-lsu", "la", (3, 4, 5, 6, 7), (3, 4, 5, 6, 7),
         scaled_config().lsu_width + 1, {}),
        ("observed", "la", (3,), (3,), 1, {"obs": True}),
        ("timeline", "la", (3,), (3,), 1, {"timeline_interval": 100}),
        ("oracle", "la", (3,), (3,), 1, {"reference": True}),
    ]

    @pytest.mark.parametrize("ops,lines,hot,reqs,kwargs",
                             [case[1:] for case in EXCLUSIONS],
                             ids=[case[0] for case in EXCLUSIONS])
    def test_everything_else_goes_through_the_queue(self, ops, lines, hot,
                                                    reqs, kwargs):
        rig = OneSM([(ops, lines)], hot=hot, reqs=reqs, **kwargs)
        before = rig.lru(lines)
        rig.issue()
        # The probe (if it ran at all) changed nothing, and the
        # instruction waits in the queue for the LSU tick.
        assert rig.lru(lines) == before
        assert not rig.l1.stats.accesses and not rig.l1.stats.hits
        assert [inst.lines for inst in rig.sm.lsu.queue] == [tuple(lines)]
        assert rig.sm.lsu.insts_through == 0
        assert rig.sm.lsu.busy_cycles == 0
        assert rig.sm.kstate[0].inflight_minsts == 1

    def test_a_non_empty_queue_keeps_order(self):
        """In-order pipeline: a hot load behind a queued instruction
        queues up behind it."""
        rig = OneSM([("la", (90,)), ("la", (3,))], hot=(3,))
        rig.issue(0)
        rig.issue(1)
        assert [inst.lines for inst in rig.sm.lsu.queue] == [(90,), (3,)]
        assert rig.sm.lsu.insts_through == 0
        assert not rig.l1.stats.accesses

    @pytest.mark.parametrize("scheme", (
        {"mil": "dmil", "sample_window": 2},
        {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)},
        {"ucp": True},
        {"mil": "dmil", "sample_window": 2, "bmi": "qbmi",
         "qbmi_init_req_per_minst": (4, 4), "ucp": True},
    ), ids=("dmil", "qbmi", "ucp", "all"))
    def test_scheme_hooks_hear_the_queue_paths_calls(self, scheme):
        """With MILG / QBMI / UCP hooks live the fused path makes the
        calls the queue path makes, arguments and order included (the
        in-flight count the hooks see is n+1 while the load is 'in
        flight' and n once it is done)."""
        lines = (11, 12, 13)

        def calls(through, reference=False):
            rig = OneSM([("lla", lines * 2)], hot=lines, reqs=3,
                        scheme=scheme, co_kernel=True, reference=reference)
            rig.sm._through_ok = through and rig.sm._through_ok
            log = []
            bundle = rig.sm.bundle
            for obj, names in (
                    (bundle.limiter, ("observe_inflight", "note_request")),
                    (bundle.mem_policy, ("note_mem_inst", "note_request")),
                    (bundle.ucp, ("observe",))):
                for name in names if obj is not None else ():
                    def spy(*args, _real=getattr(obj, name),
                            _tag=(type(obj).__name__, name)):
                        log.append(_tag + args)
                        return _real(*args)
                    setattr(obj, name, spy)
            rig.tick(4)
            assert rig.sm.lsu.insts_through == (2 if through else 0)
            return log, rig.state(lines), bundle.limiter.limits()

        fused = calls(through=True)
        assert fused[0] and fused == calls(through=False)
        assert fused == calls(through=False, reference=True)
