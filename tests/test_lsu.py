"""Unit tests for the LSU memory pipeline (in-order, replay-on-stall)."""

import dataclasses

import pytest

from repro.config import CacheConfig, scaled_config
from repro.mem.cache import (RELEASE_DRAIN, RELEASE_FILL, RSFAIL_RELEASE,
                             L1DCache)
from repro.mem.subsystem import MemorySubsystem
from repro.sim.lsu import LoadStoreUnit
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.address import StreamPattern
from repro.workloads.kernel import InstructionStream, KernelProfile


class FakeBundle:
    def __init__(self, bypass=()):
        self._bypass = set(bypass)

    def bypasses_l1d(self, kernel):
        return kernel in self._bypass


class FakeSM:
    # Hooks observed per-call below, so the LSU must not defer stall
    # accounting (the real SM advertises inert hooks the same way).
    _mem_hooks_inert = False

    def __init__(self, bypass=()):
        self.requests = []
        self.rsfails = []
        self.bundle = FakeBundle(bypass)

    def on_request_issued(self, request, result, cycle):
        self.requests.append((request.line, result))

    def on_request_issued_values(self, kernel, line, is_write, result,
                                 cycle):
        self.requests.append((line, result))

    def on_rsfail(self, kernel, cycle):
        self.rsfails.append(kernel)


def make_inst(lines, is_store=False, kernel=0):
    profile = KernelProfile(
        name="t", full_name="t", suite="u", kind="C",
        cinst_per_minst=1, reqs_per_minst=len(lines), write_frac=0.0,
        threads_per_tb=32, regs_per_thread=8,
        pattern_factory=StreamPattern, iters_per_warp=1,
    )
    tb = ThreadBlock(0, kernel, profile)
    stream = InstructionStream(profile, StreamPattern(), 0, seed=0)
    warp = Warp(0, kernel, tb, stream, age=0, mlp=4)
    completions = []
    inst = MemInst(warp, tuple(lines), is_store,
                   on_complete=lambda i, c: completions.append(c))
    return inst, completions


def make_lsu(width=2, mshrs=8, miss_queue=8):
    cfg = CacheConfig(size_bytes=8 * 128, line_size=128, assoc=2,
                      mshrs=mshrs, miss_queue=miss_queue, xor_index=False)
    return LoadStoreUnit(0, L1DCache(cfg), width=width)


class TestLSU:
    def test_expands_width_requests_per_cycle(self):
        lsu = make_lsu(width=2)
        sm = FakeSM()
        lsu.enqueue(make_inst([0, 1, 2, 3])[0])
        lsu.tick(0, sm)
        assert len(sm.requests) == 2
        lsu.tick(1, sm)
        assert len(sm.requests) == 4
        assert not lsu.queue, "fully expanded instruction leaves the queue"

    def test_queue_capacity(self):
        lsu = make_lsu()
        for _ in range(lsu.queue_depth):
            lsu.enqueue(make_inst([0])[0])
        assert not lsu.can_accept()
        with pytest.raises(RuntimeError):
            lsu.enqueue(make_inst([1])[0])

    def test_stall_blocks_pipeline_and_replays(self):
        lsu = make_lsu(mshrs=1)
        sm = FakeSM()
        lsu.enqueue(make_inst([0])[0])  # takes the only MSHR
        lsu.enqueue(make_inst([1])[0])  # will stall
        lsu.tick(0, sm)
        lsu.tick(1, sm)
        # one failure at the tail of cycle 0 (after the miss), one on
        # the cycle-1 replay
        assert sm.rsfails == [0, 0]
        assert lsu.stall_cycles == 2
        assert len(lsu.queue) == 1, "stalled instruction stays at head"
        # free the MSHR -> replay succeeds
        lsu.l1.fill(0)
        lsu.tick(2, sm)
        assert not lsu.queue

    def test_in_order_blocking(self):
        """A stalled head blocks a ready instruction behind it — the
        in-order property the paper's §4.5 relies on."""
        lsu = make_lsu(mshrs=1)
        sm = FakeSM()
        lsu.enqueue(make_inst([0], kernel=0)[0])
        lsu.enqueue(make_inst([1], kernel=1)[0])  # stalls (no MSHR)
        lsu.enqueue(make_inst([0], kernel=2)[0])  # would merge, but must wait
        lsu.tick(0, sm)
        lsu.tick(1, sm)
        assert len(lsu.queue) == 2
        assert all(line != 0 or result == "miss" for line, result in sm.requests[1:])

    def test_store_completes_on_expansion(self):
        lsu = make_lsu()
        sm = FakeSM()
        inst, completions = make_inst([0, 1], is_store=True)
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert completions == [0]

    def test_load_completes_only_after_fill(self):
        lsu = make_lsu()
        sm = FakeSM()
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert not completions
        waiters = lsu.l1.fill(0)
        for req in waiters:
            req.meminst.request_done(7)
        assert completions == [7]

    def test_hit_completes_inline(self):
        lsu = make_lsu()
        sm = FakeSM()
        warm, _ = make_inst([0])
        lsu.enqueue(warm)
        lsu.tick(0, sm)
        for req in lsu.l1.fill(0):
            req.meminst.request_done(1)
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(2, sm)
        assert completions == [2]

    def test_busy_accounting(self):
        lsu = make_lsu()
        sm = FakeSM()
        lsu.enqueue(make_inst([0])[0])
        lsu.tick(0, sm)
        lsu.tick(1, sm)  # idle
        assert lsu.busy_cycles == 1

    def test_bypassed_load_skips_l1_allocation(self):
        lsu = make_lsu()
        sm = FakeSM(bypass={0})
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert len(lsu.l1.mshrs) == 0, "bypassed reads never take an MSHR"
        assert lsu.l1.stats.bypasses[0] == 1
        assert lsu.l1.miss_queue, "the request still travels to L2"
        req = lsu.l1.miss_queue[0]
        assert req.bypass
        # completion is delivered directly, not via an L1 fill
        req.meminst.request_done(9)
        assert completions == [9]

    def test_bypass_still_needs_miss_queue_slot(self):
        lsu = make_lsu(miss_queue=1)
        sm = FakeSM(bypass={0})
        first, _ = make_inst([0])
        second, _ = make_inst([1])
        lsu.enqueue(first)
        lsu.enqueue(second)
        lsu.tick(0, sm)
        assert sm.rsfails, "a full miss queue stalls bypassed reads too"


# ----------------------------------------------------------------------
# production tick: the stall memo and the L1 release hook are keyed to
# the class of release the verdict can be moved by (docs/PERF.md s.3).
#: (verdict, L1D overrides, lines accepted first, the line that stalls)
#: on a 2-set, 2-way L1D without xor indexing (set = line % 2).
KEYED_STALLS = [
    ("rsfail_missq", {"mshrs": 4, "miss_queue": 2}, (0, 1), 3),
    ("rsfail_mshr", {"mshrs": 2, "miss_queue": 4}, (0, 1), 3),
    ("rsfail_line", {"mshrs": 4, "miss_queue": 4}, (0, 2), 4),
    ("rsfail_merge", {"mshrs": 4, "miss_queue": 4, "mshr_merge": 1},
     (0,), 0),
]


class MemoisedStall:
    """One LSU on its memoising tick + L1 driven to a memoised
    reservation failure, with both release classes scriptable."""

    def __init__(self, overrides, accepted, stalled):
        l1d = CacheConfig(size_bytes=4 * 128, line_size=128, assoc=2,
                          xor_index=False, **overrides)
        config = dataclasses.replace(scaled_config(num_sms=1), l1d=l1d)
        self.mem = MemorySubsystem(config)
        self.l1 = self.mem.l1s[0]
        self.lsu = LoadStoreUnit(0, self.l1, width=1)
        self.sm = FakeSM()
        self.cycle = 0
        self.filled = accepted[0]
        for line in accepted + (stalled,):
            self.lsu.enqueue(make_inst([line])[0])
        for _ in accepted:
            assert not self.tick()
        assert self.tick(), "the head must stall"
        self.wakes = []
        self.lsu.arm_release(lambda: self.wakes.append(self.cycle))

    def tick(self):
        self.cycle += 1
        return self.lsu.tick_memoised(self.cycle, self.sm)

    def release(self, cls):
        if cls == RELEASE_FILL:
            self.l1.fill(self.filled)
        else:
            before = len(self.l1.miss_queue)
            self.mem.icnt.begin_cycle()
            self.mem._drain_l1_miss_queues(self.cycle)
            assert len(self.l1.miss_queue) == before - 1


@pytest.mark.parametrize("verdict,overrides,accepted,stalled", KEYED_STALLS,
                         ids=[case[0] for case in KEYED_STALLS])
def test_only_its_own_release_class_moves_a_stalled_verdict(
        verdict, overrides, accepted, stalled):
    rig = MemoisedStall(overrides, accepted, stalled)
    lsu = rig.lsu
    assert lsu._stall_memo[3] == verdict
    own = RSFAIL_RELEASE[verdict]
    assert own == (RELEASE_DRAIN if verdict == "rsfail_missq"
                   else RELEASE_FILL)
    looked_up = lsu.stall_cycles
    # The other class: no wake, and the replay is still deferred — no
    # lookup, one more owed stall cycle.
    rig.release(1 - own)
    assert rig.wakes == []
    assert rig.tick() and lsu._stall_owed == 1
    assert lsu.stall_cycles == looked_up
    # Its own class: the hook fires and the retried lookup gets through.
    rig.release(own)
    assert rig.wakes == [rig.cycle]
    assert not rig.tick()
    assert rig.sm.requests[-1][0] == stalled and len(lsu.queue) == 0
    assert (lsu.stall_cycles, lsu._stall_owed) == (looked_up + 1, 0)
    assert rig.l1.stats.rsfail_reasons[verdict] == looked_up + 1


def test_partition_swap_still_voids_the_stall_memo():
    """UCP installs a new partition object: whatever class the verdict
    waits on, the next tick looks the head up again."""
    verdict, overrides, accepted, stalled = KEYED_STALLS[2]
    rig = MemoisedStall(overrides, accepted, stalled)
    lsu = rig.lsu
    assert rig.tick() and lsu._stall_owed == 1
    looked_up = lsu.stall_cycles
    rig.l1.tags.partition = {0: 2}
    assert rig.tick()
    # Both of kernel 0's ways are reserved: the same failure, re-derived
    # (the owed replay settled, then one real lookup).
    assert lsu._stall_memo[3] == verdict
    assert (lsu.stall_cycles, lsu._stall_owed) == (looked_up + 2, 0)
    assert rig.wakes == []


# ----------------------------------------------------------------------
# ``L1DCache.probe_hit``: what issue-through asks before it commits
# anything (docs/PERF.md s.8).
def l1_footprint(l1):
    tags, stats = l1.tags, l1.stats
    lines = [(ln.tag, ln.valid, ln.reserved, ln.last_use)
             for target_set in tags._sets for ln in target_set]
    return (tags._use_clock, lines, dict(stats.accesses), dict(stats.hits),
            dict(stats.misses), len(l1.miss_queue), len(l1.mshrs))


def test_probe_hit_is_read_only():
    lsu = make_lsu(mshrs=4, miss_queue=4)
    l1 = lsu.l1
    for line in (0, 1):  # resident and valid
        l1.tags.reserve(line, 0)
        l1.tags.fill(line)
    inst, _ = make_inst([5])
    lsu.enqueue(inst)
    lsu.tick_memoised(0, FakeSM())  # line 5: reserved, fill outstanding
    before = l1_footprint(l1)
    hits = [l1.probe_hit(line) for line in (0, 1)]
    assert None not in hits
    assert hits == [l1.tags.probe(0), l1.tags.probe(1)]
    assert l1.probe_hit(5) is None and l1.tags.probe(5) is not None
    assert l1.probe_hit(9) is None
    assert l1_footprint(l1) == before
