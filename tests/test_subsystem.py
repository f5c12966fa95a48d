"""Integration tests for the memory backend (L1 → icnt → L2 → DRAM →
back), including backpressure behaviour, and request conservation
over a whole run."""

from collections import Counter

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.mem.cache import AccessResult
from repro.mem.subsystem import MemRequest, MemorySubsystem
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile
from tests.test_cache import assert_tag_index_exact


class FakeMemInst:
    """Minimal stand-in for sim.warp.MemInst completion callbacks."""

    def __init__(self):
        self.completions = []

    def request_done(self, cycle):
        self.completions.append(cycle)


def drive(subsystem, cycles, start=0):
    for cycle in range(start, start + cycles):
        subsystem.tick(cycle)
    return start + cycles


class TestReadPath:
    def test_read_miss_round_trip(self):
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        inst = FakeMemInst()
        req = MemRequest(line=0, kernel=0, sm_id=0, is_write=False, meminst=inst)
        assert mem.l1s[0].access(req, 0) == AccessResult.MISS
        drive(mem, 300)
        assert inst.completions, "the fill must come back"
        latency = inst.completions[0]
        # must include both interconnect traversals and DRAM access
        assert latency >= 2 * cfg.icnt_latency + cfg.dram_latency
        assert mem.quiescent()

    def test_l2_hit_is_faster_than_dram(self):
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        first = FakeMemInst()
        req = MemRequest(0, 0, 0, False, meminst=first)
        mem.l1s[0].access(req, 0)
        drive(mem, 300)
        dram_latency = first.completions[0]

        # Same line from the *other* SM now hits in L2.
        second = FakeMemInst()
        req2 = MemRequest(0, 0, 1, False, meminst=second)
        assert mem.l1s[1].access(req2, 300) == AccessResult.MISS
        for cycle in range(300, 600):
            mem.tick(cycle)
        l2_latency = second.completions[0] - 300
        assert l2_latency < dram_latency
        assert mem.l2_stats.hits[0] == 1

    def test_cross_sm_l2_mshr_merge(self):
        """Two SMs missing the same line concurrently must both get
        fills from a single DRAM access."""
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        insts = [FakeMemInst(), FakeMemInst()]
        for sm in (0, 1):
            req = MemRequest(0, 0, sm, False, meminst=insts[sm])
            assert mem.l1s[sm].access(req, 0) == AccessResult.MISS
        drive(mem, 400)
        assert insts[0].completions and insts[1].completions
        assert mem.dram.total_serviced() == 1

    def test_writes_reach_dram_without_completion(self):
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        req = MemRequest(0, 0, 0, True, meminst=None)
        assert mem.l1s[0].access(req, 0) == AccessResult.MISS
        drive(mem, 200)
        assert mem.dram.total_serviced() == 1
        assert mem.l2_stats.writes[0] == 1


class TestBackpressure:
    def test_miss_queue_drains_over_time(self):
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        insts = []
        for i in range(cfg.l1d.miss_queue):
            inst = FakeMemInst()
            insts.append(inst)
            req = MemRequest(i * 64, 0, 0, False, meminst=inst)
            result = mem.l1s[0].access(req, 0)
            assert result in (AccessResult.MISS, AccessResult.MISS_MERGED)
        assert mem.l1s[0].miss_queue
        drive(mem, 600)
        assert not mem.l1s[0].miss_queue
        assert all(inst.completions for inst in insts)
        assert mem.quiescent()

    def test_quiescent_initially(self):
        assert MemorySubsystem(scaled_config()).quiescent()

    def test_flood_never_loses_reads(self):
        """Hundreds of distinct-line reads all complete despite queue
        limits (conservation of requests through backpressure)."""
        cfg = scaled_config()
        mem = MemorySubsystem(cfg)
        pending = []
        issued = 0
        cycle = 0
        next_line = 0
        while issued < 200 or not mem.quiescent():
            if issued < 200:
                inst = FakeMemInst()
                req = MemRequest(next_line, 0, 0, False, meminst=inst)
                result = mem.l1s[0].access(req, cycle)
                if result in (AccessResult.MISS, AccessResult.MISS_MERGED):
                    pending.append(inst)
                    issued += 1
                    next_line += 97  # scatter across sets/rows
            mem.tick(cycle)
            cycle += 1
            # deliver fills so L1 MSHRs recycle
            assert cycle < 50_000, "flood did not drain"
        assert len(pending) == 200
        assert all(inst.completions for inst in pending)



# ----------------------------------------------------------------------
# request conservation over a whole run
def reachable_reads(gpu):
    """``(LSU heads, in flight)``: the read requests an LSU holds before
    the L1 accepted them, and every read request some later stage of
    the memory pipeline holds — miss queues, L1/L2 MSHR waiter lists,
    ``l2_in``, the response queue and pending events.  An L1 MSHR holds
    its primary miss by reference while that request travels, so only
    its merged waiters (``waiters[1:]``) are counted there."""
    mem = gpu.memory
    heads = [sm.lsu._current_request for sm in gpu.sms
             if sm.lsu._current_request is not None]
    held = []
    for l1 in mem.l1s:
        held.extend(l1.miss_queue)
        for entry in l1.mshrs._entries.values():
            held.extend(entry.waiters[1:])
    for entry in mem.l2_mshrs._entries.values():
        held.extend(entry.waiters)
    held.extend(mem.l2_in)
    held.extend(mem._rsp_queue)
    for bucket in mem._events.values():
        held.extend(payload for _, payload in bucket)

    def reads(requests):
        # DRAM fills travel as ("dram_fill", line) tuples, not requests.
        return [r for r in requests
                if isinstance(r, MemRequest) and not r.is_write]
    return reads(heads), reads(held)


def assert_cache_accounting(stats):
    """Every access a cache counted ended as a hit or a miss (merged
    misses included; a reservation failure un-counts its access), and
    each reservation failure carries exactly one reason."""
    for kernel in set(stats.accesses) | set(stats.hits) | set(stats.misses):
        assert stats.accesses[kernel] \
            == stats.hits[kernel] + stats.misses[kernel], kernel
    assert sum(stats.rsfails.values()) == sum(stats.rsfail_reasons.values())


def test_run_holds_each_in_flight_request_exactly_once():
    """st+sv with st bypassing the L1D: reads, writes, MSHR merges and
    bypassed loads.  At every run boundary, on the production machine
    and on the oracle, no read request is reachable twice, each
    in-flight ``MemInst`` is reachable through exactly its ``pending``
    count of requests past the L1, and each SM's in-flight count is the
    ``MemInst``s its LSU queue and those requests reach — nothing
    leaked, nothing delivered while still travelling.  The tag index of
    every L1 and of the L2 holds exactly what its sets hold, and every
    L1 and the L2 account for each access and reservation failure."""
    config = scaled_config()
    for reference in (False, True):
        launches = make_launches([get_profile("st"), get_profile("sv")],
                                 [2, 2], config, seed=3)
        gpu = GPU(config, launches, SchemeConfig(l1d_bypass=(True, False)),
                  reference=reference)
        for step in (700, 800, 1, 1):
            gpu.run(step)
            heads, held = reachable_reads(gpu)
            assert held
            ids = [id(r) for r in heads + held]
            assert len(ids) == len(set(ids))
            per_inst = Counter(id(r.meminst) for r in held)
            insts = {id(r.meminst): r.meminst for r in held}
            for sm in gpu.sms:
                insts.update((id(inst), inst) for inst in sm.lsu.queue
                             if not inst.is_store)
            assert {key: inst.pending for key, inst in insts.items()} \
                == {key: per_inst[key] for key in insts}
            for sm in gpu.sms:
                in_flight = {id(inst) for inst in sm.lsu.queue}
                in_flight.update(id(r.meminst) for r in held
                                 if r.sm_id == sm.sm_id)
                assert len(in_flight) == sum(state.inflight_minsts
                                             for state in sm.kstate.values())
            memory = gpu.memory
            for tags in [l1.tags for l1 in memory.l1s] + [memory.l2_tags]:
                assert_tag_index_exact(tags)
            for stats in [l1.stats for l1 in memory.l1s] + [memory.l2_stats]:
                assert_cache_accounting(stats)
        stats = [l1.stats for l1 in memory.l1s]
        assert sum(sum(s.writes.values()) for s in stats) > 0
        assert sum(sum(s.bypasses.values()) for s in stats) > 0
        # The failure paths ran, so the rsfail check above is not vacuous.
        assert sum(sum(s.rsfails.values()) for s in stats) > 0
        assert sum(memory.l2_stats.rsfails.values()) > 0
