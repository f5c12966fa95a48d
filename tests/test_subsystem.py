"""Integration tests for the memory backend (L1 → icnt → L2 → DRAM →
back), including backpressure behaviour, and the production backend's
idle skip held to the oracle's every-phase-every-cycle tick."""


from repro.config import scaled_config
from repro.mem.cache import AccessResult
from repro.mem.subsystem import (MemRequest, MemorySubsystem,
                                 PooledMemorySubsystem)


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


def submit(mem, cycle, line, sm_id, is_write, meminst=None):
    """One L1D access, the way each machine's LSU tick makes it: a pool
    slot through ``access_slot`` on the production backend (freed here
    when the access ends its lifetime on the spot), a ``MemRequest``
    through ``access`` on the oracle."""
    l1 = mem.l1s[sm_id]
    if not isinstance(mem, PooledMemorySubsystem):
        return l1.access(MemRequest(line, 0, sm_id, is_write,
                                    meminst=meminst), cycle)
    slot = mem.pool.alloc(line, 0, sm_id, is_write, meminst, cycle, False)
    result = l1.access_slot(slot, line, 0, is_write, False)
    if result is AccessResult.HIT or result in AccessResult.RSFAILS:
        mem.pool.free(slot)
    return result


def replay(events, mem, horizon):
    """Feed ``(cycle, line, sm_id, is_write)`` events into ``mem``,
    ticking every cycle as the engine does; returns the sorted
    ``(line, sm_id, completion_cycle)`` triples and the number of
    cycles the backend's idle skip left a token refill owed."""
    pooled = isinstance(mem, PooledMemorySubsystem)
    insts = {}
    pending = sorted(events)
    skipped = 0
    for cycle in range(horizon):
        while pending and pending[0][0] == cycle:
            _, line, sm_id, is_write = pending.pop(0)
            inst = None
            if not is_write:
                inst = insts[(line, sm_id)] = FakeMemInst()
            submit(mem, cycle, line, sm_id, is_write, inst)
        owed = mem._skipped_refills if pooled else 0
        mem.tick(cycle)
        if pooled:
            skipped += mem._skipped_refills > owed
            if mem.quiescent():
                # Every pool slot is free whenever nothing is in flight.
                assert mem.pool.live_count() == 0
    assert mem.quiescent(), "horizon too short for the script"
    return sorted((line, sm_id, c) for (line, sm_id), inst in insts.items()
                  for c in inst.completions), skipped


class TestPooledIdleSkip:
    def test_batched_refills_match_the_oracle(self):
        """Bursty traffic separated by idle gaps: the production
        backend owes the interconnect one token refill per idle-skipped
        cycle, and the batched catch-up must reproduce the oracle's
        completion cycles exactly (tokens cap out identically)."""
        cfg = scaled_config()
        events = []
        # Write bursts drain request tokens (writes carry line_flits
        # each), then short idle shadows, then reads that contend for
        # the recovering tokens.
        line = 0
        for burst_at in (0, 40, 95, 160):
            for i in range(6):
                events.append((burst_at, line, i % 2, True))
                line += 64 * 97
            events.append((burst_at + 2, line, 0, False))
            line += 64 * 97
        ref, _ = replay(events, MemorySubsystem(cfg), 600)
        fast, skipped = replay(events, PooledMemorySubsystem(cfg), 600)
        assert ref, "script must produce completions"
        assert fast == ref
        assert skipped > 300, "the replay must have skipped idle cycles"

    def test_idle_skip_advances_drain_pointer(self):
        mem = PooledMemorySubsystem(scaled_config())
        oracle = MemorySubsystem(scaled_config())
        for cycle in range(3):
            mem.tick(cycle)
            oracle.tick(cycle)
        assert mem._drain_rr == oracle._drain_rr == 3 % len(mem.l1s)
        assert mem._skipped_refills == 3

    def test_quiescent_false_until_fill_delivered(self):
        """While a read waits on DRAM every queue is drained and the
        backend idle-skips, but the request is still in flight:
        quiescent() must say so, and its pool slot must stay live."""
        mem = PooledMemorySubsystem(scaled_config())
        inst = FakeMemInst()
        submit(mem, 0, 0, 0, False, inst)
        saw_drained_in_flight = False
        cycle = 0
        while not inst.completions:
            assert not mem.quiescent()
            assert mem.pool.live_count() == 1
            mem.tick(cycle)
            if (not inst.completions and mem._skipped_refills
                    and not mem.dram.queued):
                # Nothing queued anywhere: only a scheduled event (the
                # DRAM read's completion) still holds the request.
                saw_drained_in_flight = True
            cycle += 1
            assert cycle < 1000, "read never completed"
        assert saw_drained_in_flight, \
            "test must observe the drained-but-in-flight state"
        mem.tick(cycle)
        assert mem.quiescent()
        assert mem.pool.live_count() == 0
