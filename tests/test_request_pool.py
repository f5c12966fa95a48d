"""Pool invariants and component-level bit-identity for the
struct-of-arrays memory path (:mod:`repro.mem.pool`).

Three proof obligations ride on the slot pool:

* free-list recycling must never hand out a slot that is still live
  (aliasing two in-flight requests onto one set of fields);
* pool exhaustion must grow deterministically — same capacity curve
  and same slot-id sequence on every run;
* each array-backed component (tag store, MSHR file) must be
  bit-identical to its object twin under randomized operation
  sequences, including the partitioned (UCP) victim path;
* a whole run must conserve slots: live exactly while some pipeline
  stage still holds them.
"""

import random

import pytest

from repro.config import CacheConfig, scaled_config
from repro.core.arbiter import SchemeConfig
from repro.mem.cache import SetAssocCache
from repro.mem.mshr import MSHRFile
from repro.mem.pool import (DEFAULT_POOL_CAPACITY, ArrayMSHRFile,
                            ArrayTagStore, RequestPool)
from repro.mem.subsystem import EV_DRAM_FILL
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile


# ----------------------------------------------------------------------
# RequestPool invariants
def test_alloc_never_aliases_a_live_slot():
    pool = RequestPool(capacity=8)
    rng = random.Random(17)
    live = set()
    for step in range(4000):
        if live and rng.random() < 0.45:
            slot = rng.choice(sorted(live))
            pool.free(slot)
            live.remove(slot)
        else:
            slot = pool.alloc(line=step, kernel=step % 3, sm_id=0,
                              is_write=False, meminst=None,
                              issued_cycle=step, bypass=False)
            assert slot not in live, "alloc returned a live slot"
            assert pool.live[slot]
            assert pool.line[slot] == step
            live.add(slot)
        assert pool.live_count() == len(live)


def test_double_free_raises():
    pool = RequestPool(capacity=4)
    slot = pool.alloc(1, 0, 0, False, None, 0, False)
    pool.free(slot)
    with pytest.raises(RuntimeError, match="double free"):
        pool.free(slot)


def test_exhaustion_grows_deterministically():
    pool = RequestPool(capacity=4)
    slots = [pool.alloc(i, 0, 0, False, None, 0, False) for i in range(9)]
    # Slot ids are handed out in order; growth extends, never reshuffles.
    assert slots == list(range(9))
    assert pool.grows == 2  # 4 -> 8 -> 16
    assert pool.capacity == 16
    # A second pool driven identically produces the identical sequence.
    twin = RequestPool(capacity=4)
    assert [twin.alloc(i, 0, 0, False, None, 0, False)
            for i in range(9)] == slots
    assert (twin.grows, twin.capacity) == (pool.grows, pool.capacity)


def test_freed_slots_recycle_lifo():
    pool = RequestPool(capacity=4)
    a = pool.alloc(1, 0, 0, False, None, 0, False)
    b = pool.alloc(2, 0, 0, False, None, 0, False)
    pool.free(a)
    pool.free(b)
    assert pool.alloc(3, 0, 0, False, None, 0, False) == b
    assert pool.alloc(4, 0, 0, False, None, 0, False) == a


def test_default_capacity_and_validation():
    assert RequestPool().capacity == DEFAULT_POOL_CAPACITY
    with pytest.raises(ValueError):
        RequestPool(capacity=0)


def test_view_presents_the_request_surface():
    pool = RequestPool(capacity=4)
    inst = object()
    slot = pool.alloc(line=0xAB, kernel=2, sm_id=5, is_write=True,
                      meminst=inst, issued_cycle=42, bypass=True)
    view = pool.view(slot)
    assert (view.line, view.kernel, view.sm_id) == (0xAB, 2, 5)
    assert view.is_write and view.bypass
    assert view.meminst is inst
    assert view.issued_cycle == 42
    assert view.trace_id is None
    view.trace_id = 7  # obs hooks write this through to the pool
    assert pool.trace_id[slot] == 7
    # A fresh allocation of the same slot resets the trace id.
    pool.free(slot)
    assert pool.alloc(1, 0, 0, False, None, 0, False) == slot
    assert pool.view(slot).trace_id is None


# ----------------------------------------------------------------------
# ArrayTagStore vs SetAssocCache
TAG_CONFIG = CacheConfig(size_bytes=4096, line_size=128, assoc=4,
                         mshrs=8, miss_queue=8)


def _tag_state(obj: SetAssocCache):
    state = []
    for target_set in obj._sets:
        for ln in target_set:
            state.append((ln.tag, ln.valid, ln.reserved, ln.dirty,
                          ln.kernel, ln.last_use))
    return state


def _array_state(arr: ArrayTagStore):
    return [(arr.tag[i], arr.valid[i], arr.reserved[i], arr.dirty[i],
             arr.kernel[i], arr.last_use[i])
            for i in range(arr.num_sets * arr.assoc)]


@pytest.mark.parametrize("partition", [None, {0: 1, 1: 3}, {0: 2}],
                         ids=["unpartitioned", "ucp-1-3", "ucp-partial"])
def test_tag_store_matches_object_store_under_fuzz(partition):
    obj = SetAssocCache(TAG_CONFIG)
    arr = ArrayTagStore(TAG_CONFIG)
    obj.partition = arr.partition = partition
    rng = random.Random(23)
    lines = [rng.randrange(512) for _ in range(64)]
    for _step in range(3000):
        line = rng.choice(lines)
        kernel = rng.randrange(2)
        op = rng.random()
        if op < 0.4:
            found_obj = obj.lookup(line)
            way = arr.find(line)
            assert (found_obj is not None) == (way >= 0)
            if way >= 0 and arr.valid[way]:
                arr.touch(way)  # the lookup's valid-hit LRU bump
        elif op < 0.7:
            # The L1 only reserves after a find() miss (the pool's
            # documented contract — duplicate resident tags would make
            # the _where index ambiguous), so the fuzz does too.
            resident = arr.find(line) >= 0
            assert (obj.probe(line) is not None) == resident
            if not resident:
                assert obj.reserve(line, kernel) == arr.reserve(line, kernel)
        elif op < 0.9:
            # Fills arrive for absent lines (the lost-reservation
            # fallback) or outstanding reservations — never for a
            # valid resident line (that fill was already delivered).
            way = arr.find(line)
            if way < 0 or arr.reserved[way]:
                obj.fill(line)
                arr.fill(line)
        else:
            obj.invalidate(line)
            arr.invalidate(line)
        assert _tag_state(obj) == _array_state(arr)
    assert obj.occupancy_by_kernel() == arr.occupancy_by_kernel()


def test_tag_store_probe_semantics():
    arr = ArrayTagStore(TAG_CONFIG)
    assert arr.find(0x10) == -1
    ok, dirty, tag = arr.reserve(0x10, kernel=0)
    assert ok and not dirty and tag == -1
    way = arr.find(0x10)
    assert way >= 0 and arr.reserved[way] and not arr.valid[way]
    arr.fill(0x10)
    way = arr.find(0x10)
    assert arr.valid[way] and not arr.reserved[way]
    arr.invalidate(0x10)
    assert arr.find(0x10) == -1


# ----------------------------------------------------------------------
# ArrayMSHRFile vs MSHRFile
def test_mshr_file_matches_object_file_under_fuzz():
    obj = MSHRFile(capacity=6, merge_limit=3)
    arr = ArrayMSHRFile(capacity=6, merge_limit=3)
    rng = random.Random(41)
    outstanding = []
    waiter = 0
    for _step in range(4000):
        if outstanding and rng.random() < 0.35:
            line = rng.choice(outstanding)
            outstanding.remove(line)
            obj_waiters = obj.release(line).waiters
            arr_waiters = arr.release(line)
            assert obj_waiters == arr_waiters
        else:
            line = rng.randrange(32)
            assert obj.can_merge(line) == arr.can_merge(line)
            if obj.try_merge(line, waiter):
                assert line in outstanding
                arr_ok = arr.try_merge(line, waiter)
                assert arr_ok
            elif line not in outstanding and obj.can_allocate():
                assert not arr.try_merge(line, waiter)
                obj.allocate(line, waiter % 2, waiter)
                arr.allocate(line, waiter % 2, waiter)
                outstanding.append(line)
            waiter += 1
        assert len(obj) == len(arr)
        assert obj.full == arr.full
        assert obj.peak_used == arr.peak_used
        assert obj.occupancy_by_kernel() == arr.occupancy_by_kernel()


def test_mshr_release_errors_match():
    arr = ArrayMSHRFile(capacity=2)
    with pytest.raises(RuntimeError, match="no MSHR outstanding"):
        arr.release(0x99)
    arr.allocate(0x5, 0, waiter=1)
    with pytest.raises(RuntimeError, match="already allocated"):
        arr.allocate(0x5, 0, waiter=2)


def test_mshr_waiter_lists_survive_until_reallocation():
    """``release`` hands back the live list; it must stay intact until
    the entry index is next allocated (the fill fan-out iterates it)."""
    arr = ArrayMSHRFile(capacity=2)
    arr.allocate(0x1, 0, waiter=10)
    arr.merge(0x1, waiter=11)
    waiters = arr.release(0x1)
    assert waiters == [10, 11]
    # The next allocate recycles the entry and only then clears it.
    arr.allocate(0x2, 0, waiter=20)
    assert waiters == [20]


# ----------------------------------------------------------------------
# slot conservation over a whole run
def held_slots(gpu):
    """Every pool slot some stage of the memory pipeline still holds."""
    mem = gpu.memory
    slots = set()
    for sm in gpu.sms:
        head = sm.lsu._current_request
        if head is not None:
            slots.add(head[0])
    for mshrs in [l1.mshrs for l1 in mem.l1s] + [mem.l2_mshrs]:
        for entry in mshrs._index.values():
            slots.update(mshrs._waiters[entry])
    for l1 in mem.l1s:
        slots.update(l1.miss_queue)
    slots.update(mem.l2_in)
    slots.update(slot for slot in mem._rsp_queue if slot >= 0)
    for bucket in mem._events.values():
        slots.update(ev >> 2 for ev in bucket if ev & 3 != EV_DRAM_FILL)
    return slots


def test_run_keeps_live_exactly_the_slots_still_in_flight():
    """st+sv with st bypassing the L1D: reads, writes, MSHR merges and
    bypassed loads.  At every run boundary the live slots are exactly
    the ones reachable from the LSU heads, the miss queues, the L1/L2
    MSHR waiter lists, ``l2_in``, the response queue and the pending
    events — nothing leaked, nothing freed while still travelling."""
    config = scaled_config()
    launches = make_launches([get_profile("st"), get_profile("sv")],
                             [2, 2], config, seed=3)
    gpu = GPU(config, launches, SchemeConfig(l1d_bypass=(True, False)))
    pool = gpu.memory.pool
    for step in (700, 800, 1, 1):
        gpu.run(step)
        live = {slot for slot, is_live in enumerate(pool.live) if is_live}
        assert live == held_slots(gpu)
        assert pool.live_count() == len(live) > 0
    stats = [l1.stats for l1 in gpu.memory.l1s]
    assert sum(sum(s.writes.values()) for s in stats) > 0
    assert sum(sum(s.bypasses.values()) for s in stats) > 0
