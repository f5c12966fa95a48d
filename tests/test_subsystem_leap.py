"""Edge cases for the memory backend's leap machinery.

The production engine jumps over provably-inert stretches by calling
``PooledMemorySubsystem.skip_cycles`` instead of ticking every cycle.
These tests pin the equivalence claims that make that safe, scripted
into the production backend and checked against the oracle
(``MemorySubsystem``, which ticks every phase every cycle):

* owed interconnect token refills batched across a leap behave exactly
  like per-cycle refills;
* a leap that lands exactly on a scheduled event still processes that
  event on the landing tick;
* ``quiescent()`` stays False while a DRAM read is in flight even
  though the queues are drained (``leapable()`` True), and the event
  wheel still bounds the leap in that state;
* every pool slot is back on the free list whenever the backend is
  quiescent.
"""

from repro.config import scaled_config
from repro.mem.cache import AccessResult
from repro.mem.subsystem import (MemRequest, MemorySubsystem,
                                 PooledMemorySubsystem)
from repro.sim.wheel import NEVER, EventWheel


class FakeMemInst:
    def __init__(self):
        self.completions = []

    def request_done(self, cycle):
        self.completions.append(cycle)


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


class Script:
    """A deterministic request schedule, replayable into either
    backend."""

    def __init__(self, events):
        # events: list of (cycle, line, sm_id, is_write)
        self.events = sorted(events)

    def replay(self, mem, horizon):
        """Returns the sorted list of (line, completion_cycle) pairs.
        The production backend is driven the way the engine drives it
        (leap whenever a tick reports an inert cycle and the queues are
        drained); the oracle is ticked every cycle."""
        leap = isinstance(mem, PooledMemorySubsystem)
        insts = {}
        pending = list(self.events)
        cycle = 0
        while cycle < horizon:
            while pending and pending[0][0] == cycle:
                _, line, sm_id, is_write = pending.pop(0)
                inst = None
                if not is_write:
                    inst = FakeMemInst()
                    insts[(line, sm_id)] = inst
                submit(mem, cycle, line, sm_id, is_write, inst)
            idle = mem.tick(cycle)
            if leap and mem.quiescent():
                assert mem.pool.live_count() == 0
            if leap and idle and mem.leapable():
                nxt = mem.next_activity(cycle)
                if pending and pending[0][0] < nxt:
                    nxt = pending[0][0]
                if nxt > horizon:
                    nxt = horizon
                if nxt > cycle + 1:
                    mem.skip_cycles(nxt - cycle - 1)
                    cycle = nxt
                    continue
            cycle += 1
        assert mem.quiescent(), "horizon too short for the script"
        done = []
        for (line, sm_id), inst in insts.items():
            for c in inst.completions:
                done.append((line, sm_id, c))
        return sorted(done)


class TestOwedRefillsAcrossLeap:
    def test_batched_refills_match_reference_loop(self):
        """Bursty traffic separated by idle gaps: the leap path owes
        the interconnect one token refill per skipped cycle, and the
        batched catch-up must reproduce the oracle's completion cycles
        exactly (tokens cap out identically)."""
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
        ref = Script(events).replay(MemorySubsystem(cfg), 600)
        production = PooledMemorySubsystem(cfg)
        fast = Script(events).replay(production, 600)
        assert ref, "script must produce completions"
        assert fast == ref
        assert production.idle_cycles > 300, "the replay must have leapt"

    def test_skip_cycles_advances_drain_pointer(self):
        cfg = scaled_config()
        mem = PooledMemorySubsystem(cfg)
        before = mem._drain_rr
        mem.skip_cycles(3)
        assert mem._drain_rr == (before + 3) % len(mem.l1s)
        assert mem._skipped_refills == 3
        assert mem.idle_cycles == 3


class TestLeapLandsOnEvent:
    def test_landing_tick_processes_the_due_event(self):
        """After a read's miss queue drains into the interconnect, the
        backend is leapable and ``next_activity`` names the l2_arrive
        cycle; ticking exactly there must deliver the request to L2."""
        cfg = scaled_config()
        mem = PooledMemorySubsystem(cfg)
        assert submit(mem, 0, 0, 0, False,
                      FakeMemInst()) == AccessResult.MISS
        mem.tick(0)  # drains the miss queue, schedules l2_arrive
        assert not mem.l1s[0].miss_queue
        assert mem.leapable()
        arrive = mem.next_activity(0)
        assert arrive == cfg.icnt_latency
        mem.skip_cycles(arrive - 1)
        assert not mem.l2_in
        mem.tick(arrive)
        # The event fired on the landing tick: the request reached L2
        # (and, L2 being empty, was processed the same cycle).
        assert mem.l2_stats.accesses[0] == 1

    def test_leap_run_matches_reference_completion_cycle(self):
        cfg = scaled_config()
        script = Script([(0, 0, 0, False)])
        ref = script.replay(MemorySubsystem(cfg), 400)
        fast = script.replay(PooledMemorySubsystem(cfg), 400)
        assert len(ref) == 1
        assert fast == ref


class TestWheelPostAtCurrentCycle:
    """The `next_after` stale-drop edge: entries at or before `now` are
    discarded, so a post *at the current cycle* is invisible to the
    leap evaluated that same cycle.  This is why every mutator posts
    `cycle + 1` (the REPRO-W001 hint) — the engine finishes ticking
    `cycle` unconditionally, and the wheel only needs to name the
    *next* cycle anything can happen."""

    def test_post_at_now_is_stale_by_contract(self):
        wheel = EventWheel()
        wheel.post(10)
        assert wheel.next_after(10) == NEVER

    def test_repost_of_a_drained_cycle_is_not_deduped_away(self):
        # Draining must clear the dedup index: a later re-post of the
        # same cycle value has to re-enter the heap, or the activity it
        # announces would be silently skipped.
        wheel = EventWheel()
        wheel.post(10)
        assert wheel.next_after(10) == NEVER  # drains the entry
        wheel.post(10)
        assert wheel.next_after(9) == 10
        assert len(wheel) == 1

    def test_post_during_drain_is_not_skipped_by_the_leap(self):
        # Engine at cycle 5 with a far-future entry: work enqueued
        # *during* the cycle-5 tick posts its wake as 5 + 1, and the
        # leap evaluated after the tick must land there, not at 40.
        wheel = EventWheel()
        wheel.post(5)
        wheel.post(40)
        assert wheel.next_after(5) == 40  # the cycle-5 entry is stale
        wheel.post(6)  # mutation during the tick pins cycle + 1
        assert wheel.next_after(5) == 6
        # the far entry survives the bounded leap
        assert wheel.next_after(6) == 40


class TestQuiescentDuringDramFlight:
    def test_quiescent_false_until_fill_delivered(self):
        """While the read waits on DRAM the queues are drained
        (leapable) but the request is still in flight: quiescent()
        must say so, and the wheel must bound the leap."""
        cfg = scaled_config()
        mem = PooledMemorySubsystem(cfg)
        inst = FakeMemInst()
        submit(mem, 0, 0, 0, False, inst)
        saw_leapable_in_flight = False
        cycle = 0
        while not inst.completions:
            assert not mem.quiescent()
            assert mem.pool.live_count() == 1
            mem.tick(cycle)
            # The engine evaluates the leap *after* the memory tick,
            # by which point a serving DRAM channel has posted its
            # busy_until into the wheel.
            if (not inst.completions and mem.leapable()
                    and mem.dram.queued):
                saw_leapable_in_flight = True
                # The leap may not sail past the in-flight read: both
                # the scan oracle and the wheel must name a bounded
                # wake cycle.
                assert mem.next_activity(cycle) < NEVER
                assert mem.wheel.next_after(cycle) < NEVER
                # The wheel may only ever be conservative: wake at or
                # before the scan oracle, never after.
                assert (mem.wheel.next_after(cycle)
                        <= mem.next_activity(cycle))
            cycle += 1
            assert cycle < 1000, "read never completed"
        assert saw_leapable_in_flight, \
            "test must observe the drained-but-in-flight state"
        mem.tick(cycle)
        assert mem.quiescent()
        assert mem.pool.live_count() == 0
