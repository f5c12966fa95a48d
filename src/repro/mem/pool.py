"""Struct-of-arrays backing stores for the allocation-free memory path.

The oracle's memory pipeline carries a :class:`~repro.mem.subsystem
.MemRequest` object per coalesced line and walks object-per-line tag
stores and dict-of-entry MSHRs.  On memory-bound workloads that makes
the interpreter's allocator and attribute machinery the dominant
simulation cost.  This module provides the flat-array equivalents the
production machine (every ``GPU`` that is not ``reference=True``,
observed or not) runs on:

* :class:`RequestPool` — a preallocated, free-list-recycled slot pool
  holding every in-flight request's fields in parallel arrays; the
  pipeline passes integer slot ids instead of objects.
* :class:`PoolSlotView` — an ephemeral object facade over one slot,
  presenting the exact ``MemRequest`` attribute surface so the
  observability hooks read (and write ``trace_id`` on) pool slots
  through their existing interface.
* :class:`ArrayTagStore` — a :class:`~repro.mem.cache.SetAssocCache`
  rewritten over flat per-way arrays (one int/bool list each for tag /
  valid / reserved / dirty / kernel / last_use), replicating the LRU
  clock, reservation, partitioned-victim and fill semantics bump for
  bump.
* :class:`ArrayMSHRFile` — a :class:`~repro.mem.mshr.MSHRFile` over a
  fixed entry pool with recycled waiter lists; waiters are pool slot
  ids.

Every class here is held bit-identical to its object twin:
tests/test_request_pool.py fuzzes each component against it, the
production-vs-oracle sweeps require ``result_signature`` equality
between the two machines across schemes and randomized mixes, and
``benchmarks/e2e``
re-asserts it on every workload it measures (see docs/PERF.md §6).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.config import CacheConfig

#: initial slot capacity; the pool doubles deterministically when the
#: in-flight population outgrows it (allocation order is a pure
#: function of the simulation, so growth points are reproducible).
DEFAULT_POOL_CAPACITY = 256


class RequestPool:
    """Free-list-recycled struct-of-arrays store for in-flight memory
    requests.

    ``alloc`` hands out the lowest-recently-freed slot id and stamps
    the request fields into the parallel arrays; ``free`` recycles the
    slot once the request's lifetime ends (L1 hit, write reaching the
    L2 boundary, or fill delivery).  ``live`` guards against the one
    bug class pooling introduces: freeing a slot that is still
    travelling would alias two requests onto one set of fields.
    """

    __slots__ = ("capacity", "line", "kernel", "sm_id", "is_write",
                 "bypass", "meminst", "issued_cycle", "trace_id", "live",
                 "_free", "grows")

    def __init__(self, capacity: int = DEFAULT_POOL_CAPACITY):
        if capacity < 1:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self.line: List[int] = [0] * capacity
        self.kernel: List[int] = [-1] * capacity
        self.sm_id: List[int] = [-1] * capacity
        self.is_write: List[bool] = [False] * capacity
        self.bypass: List[bool] = [False] * capacity
        self.meminst: List[object] = [None] * capacity
        self.issued_cycle: List[int] = [0] * capacity
        self.trace_id: List[Optional[int]] = [None] * capacity
        self.live: List[bool] = [False] * capacity
        # Reversed so pop() hands out slot 0, 1, 2, ... in order.
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: times the pool doubled (deterministic; perf introspection).
        self.grows = 0

    def alloc(self, line: int, kernel: int, sm_id: int, is_write: bool,
              meminst, issued_cycle: int, bypass: bool) -> int:
        """Claim a slot and stamp the request fields; returns the id."""
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        self.line[slot] = line
        self.kernel[slot] = kernel
        self.sm_id[slot] = sm_id
        self.is_write[slot] = is_write
        self.bypass[slot] = bypass
        self.meminst[slot] = meminst
        self.issued_cycle[slot] = issued_cycle
        self.trace_id[slot] = None
        self.live[slot] = True
        return slot

    def _grow(self) -> None:
        old = self.capacity
        grow = old  # double
        self.line.extend([0] * grow)
        self.kernel.extend([-1] * grow)
        self.sm_id.extend([-1] * grow)
        self.is_write.extend([False] * grow)
        self.bypass.extend([False] * grow)
        self.meminst.extend([None] * grow)
        self.issued_cycle.extend([0] * grow)
        self.trace_id.extend([None] * grow)
        self.live.extend([False] * grow)
        # Reversed again: the next allocations are old, old+1, ... —
        # growth changes capacity, never the slot-id sequence.
        self._free.extend(range(old + grow - 1, old - 1, -1))
        self.capacity = old + grow
        self.grows += 1

    def free(self, slot: int) -> None:
        """Recycle a slot whose request's lifetime ended."""
        if not self.live[slot]:
            raise RuntimeError(f"double free of pool slot {slot}")
        self.live[slot] = False
        self.meminst[slot] = None  # drop the MemInst reference promptly
        self._free.append(slot)

    def live_count(self) -> int:
        return self.capacity - len(self._free)

    def high_water(self) -> int:
        """Most slots ever live at once.  Freed slots are reused before
        fresh ones, so the slots ever handed out are ``0 .. peak-1`` —
        exactly those whose ``kernel`` field ``alloc`` has stamped."""
        try:
            return self.kernel.index(-1)
        except ValueError:
            return self.capacity

    def view(self, slot: int) -> "PoolSlotView":
        """An ephemeral ``MemRequest``-shaped facade over ``slot`` for
        the observability hooks (never retained by the collector)."""
        return PoolSlotView(self, slot)


class PoolSlotView:
    """Read/write facade presenting one pool slot with the
    :class:`~repro.mem.subsystem.MemRequest` attribute surface.

    Obs hooks address requests through exactly the attributes below;
    ``trace_id`` is the one they also assign, so its setter writes
    through to the pool array (the trace id must survive across hook
    calls while the slot is in flight)."""

    __slots__ = ("_pool", "slot")

    def __init__(self, pool: RequestPool, slot: int):
        self._pool = pool
        self.slot = slot

    @property
    def line(self) -> int:
        return self._pool.line[self.slot]

    @property
    def kernel(self) -> int:
        return self._pool.kernel[self.slot]

    @property
    def sm_id(self) -> int:
        return self._pool.sm_id[self.slot]

    @property
    def is_write(self) -> bool:
        return self._pool.is_write[self.slot]

    @property
    def bypass(self) -> bool:
        return self._pool.bypass[self.slot]

    @property
    def meminst(self):
        return self._pool.meminst[self.slot]

    @property
    def issued_cycle(self) -> int:
        return self._pool.issued_cycle[self.slot]

    @property
    def trace_id(self) -> Optional[int]:
        return self._pool.trace_id[self.slot]

    @trace_id.setter
    def trace_id(self, value: Optional[int]) -> None:
        self._pool.trace_id[self.slot] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (f"<PoolSlotView #{self.slot} {kind} line={self.line:#x} "
                f"k{self.kernel} sm{self.sm_id}>")


class ArrayTagStore:
    """Flat-array twin of :class:`~repro.mem.cache.SetAssocCache`.

    Ways are stored as parallel lists indexed ``set * assoc + way``.
    Every LRU-clock bump happens at the same logical operation as in
    the object store (lookup-touch on valid hit, victim-touch on
    reserve, fill-touch — twice on the fallback re-reserve path), so
    replacement decisions are bit-identical.  Exposes ``config`` /
    ``assoc`` / ``partition`` so UCP drives it exactly like the object
    store.
    """

    __slots__ = ("config", "num_sets", "assoc", "_xor", "tag", "valid",
                 "reserved", "dirty", "kernel", "last_use", "use_clock",
                 "partition", "_where")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._xor = config.xor_index
        size = self.num_sets * self.assoc
        self.tag: List[int] = [-1] * size
        self.valid: List[bool] = [False] * size
        self.reserved: List[bool] = [False] * size
        self.dirty: List[bool] = [False] * size
        self.kernel: List[int] = [-1] * size
        self.last_use: List[int] = [0] * size
        self.use_clock = 0
        #: kernel -> allotted ways; None disables partitioning (same
        #: object-identity memo contract as the object store).
        self.partition: Optional[Dict[int, int]] = None
        #: line addr -> flat way index of every resident (valid or
        #: reserved) line: O(1) ``find``.  Maintained at the three
        #: mutation sites (reserve, invalidate, and reserve's victim
        #: eviction); a line maps to exactly one set, so keys never
        #: collide.
        self._where: Dict[int, int] = {}

    def set_index(self, line_addr: int) -> int:
        sets = self.num_sets
        if self._xor:
            return (line_addr ^ (line_addr // sets)) % sets
        return line_addr % sets

    def find(self, line_addr: int) -> int:
        """Way index of the line (valid or reserved), or -1.  The array
        analogue of ``probe`` — no LRU update.  One dict lookup: the
        ``_where`` index tracks every resident tag, so no way scan."""
        return self._where.get(line_addr, -1)

    def touch(self, i: int) -> None:
        """Mark way ``i`` most-recently-used (the ``lookup`` LRU bump;
        callers apply it only to valid ways, as the object store does)."""
        self.use_clock += 1
        self.last_use[i] = self.use_clock

    def _partitioned_victim(self, base: int, kernel: int) -> int:
        # Mirrors SetAssocCache._candidate_victims + min(key=last_use)
        # (first-wins tie-break follows from the scan order).
        assoc = self.assoc
        valid = self.valid
        reserved = self.reserved
        kern = self.kernel
        last_use = self.last_use
        part = self.partition
        ways = range(base, base + assoc)
        free = [i for i in ways if not valid[i] and not reserved[i]]
        quota = part.get(kernel, assoc)
        mine = sum(1 for i in ways
                   if (valid[i] or reserved[i]) and kern[i] == kernel)
        if mine >= quota:
            cands = [i for i in ways
                     if valid[i] and not reserved[i] and kern[i] == kernel]
        elif free:
            cands = free
        else:
            counts: Dict[int, int] = defaultdict(int)
            for i in ways:
                if valid[i] or reserved[i]:
                    counts[kern[i]] += 1
            cands = [i for i in ways if valid[i] and not reserved[i]
                     and counts[kern[i]] > part.get(kern[i], assoc)]
            if not cands:
                cands = [i for i in ways if valid[i] and not reserved[i]]
        if not cands:
            return -1
        best = cands[0]
        for i in cands[1:]:
            if last_use[i] < last_use[best]:
                best = i
        return best

    def reserve(self, line_addr: int, kernel: int):
        """Allocate-on-miss; returns ``(ok, evicted_dirty, evicted_tag)``
        exactly like the object store."""
        assoc = self.assoc
        base = self.set_index(line_addr) * assoc
        valid = self.valid
        reserved = self.reserved
        last_use = self.last_use
        if self.partition is None:
            # Fused victim scan, strict < = first-wins tie-breaking.
            best_free = -1
            best_free_lu = 0
            best_any = -1
            best_any_lu = 0
            for i in range(base, base + assoc):
                if reserved[i]:
                    continue
                lu = last_use[i]
                if not valid[i] and (best_free < 0 or lu < best_free_lu):
                    best_free = i
                    best_free_lu = lu
                if best_any < 0 or lu < best_any_lu:
                    best_any = i
                    best_any_lu = lu
            victim = best_free if best_free >= 0 else best_any
            if victim < 0:
                return False, False, -1
        else:
            victim = self._partitioned_victim(base, kernel)
            if victim < 0:
                return False, False, -1
        tag = self.tag
        dirty = self.dirty
        evicted_dirty = valid[victim] and dirty[victim]
        evicted_tag = tag[victim]
        where = self._where
        if evicted_tag >= 0:
            del where[evicted_tag]
        where[line_addr] = victim
        tag[victim] = line_addr
        valid[victim] = False
        reserved[victim] = True
        dirty[victim] = False
        self.kernel[victim] = kernel
        self.use_clock += 1
        last_use[victim] = self.use_clock
        return True, evicted_dirty, evicted_tag

    def fill(self, line_addr: int) -> None:
        """Complete an outstanding reservation (the fill arrived)."""
        i = self.find(line_addr)
        if i < 0 or not self.reserved[i]:
            # Reservation made under a different partition config:
            # insert fresh if possible (double-touch path, matching the
            # object store's reserve-then-fill clock sequence).
            ok, _, _ = self.reserve(line_addr, kernel=-1)
            if not ok:
                return
            i = self.find(line_addr)
            assert i >= 0
        self.reserved[i] = False
        self.valid[i] = True
        self.use_clock += 1
        self.last_use[i] = self.use_clock

    def invalidate(self, line_addr: int) -> None:
        i = self._where.get(line_addr, -1)
        if i >= 0 and self.valid[i]:
            del self._where[line_addr]
            self.valid[i] = False
            self.tag[i] = -1
            self.dirty[i] = False

    def occupancy_by_kernel(self) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        valid = self.valid
        reserved = self.reserved
        kernel = self.kernel
        for i in range(len(valid)):
            if valid[i] or reserved[i]:
                out[kernel[i]] += 1
        return dict(out)


class ArrayMSHRFile:
    """Entry-pooled twin of :class:`~repro.mem.mshr.MSHRFile`; waiters
    are :class:`RequestPool` slot ids.

    Waiter lists are recycled with their entry: ``release`` returns the
    live list for the caller to fan out, and the list is only cleared
    when its entry index is next allocated — valid because no fill
    fan-out can allocate an L1/L2 MSHR before it finishes iterating
    (completions never issue new cache accesses inline).
    """

    __slots__ = ("capacity", "merge_limit", "_index", "_kernel",
                 "_waiters", "_free", "peak_used")

    def __init__(self, capacity: int, merge_limit: int = 8):
        if capacity < 1:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self.merge_limit = merge_limit
        #: line addr -> entry index.
        self._index: Dict[int, int] = {}
        self._kernel: List[int] = [-1] * capacity
        self._waiters: List[List[int]] = [[] for _ in range(capacity)]
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: high-water mark of simultaneously allocated entries.
        self.peak_used = 0

    def __len__(self) -> int:
        return len(self._index)

    @property
    def full(self) -> bool:
        return len(self._index) >= self.capacity

    def lookup(self, line_addr: int) -> Optional[int]:
        return self._index.get(line_addr)

    def can_allocate(self) -> bool:
        return len(self._index) < self.capacity

    def can_merge(self, line_addr: int) -> bool:
        entry = self._index.get(line_addr)
        return (entry is not None
                and len(self._waiters[entry]) < self.merge_limit)

    def try_merge(self, line_addr: int, waiter: int) -> bool:
        """Fused ``can_merge`` + ``merge`` (one index lookup)."""
        entry = self._index.get(line_addr)
        if entry is None:
            return False
        waiters = self._waiters[entry]
        if len(waiters) >= self.merge_limit:
            return False
        waiters.append(waiter)
        return True

    def allocate(self, line_addr: int, kernel: int, waiter: int) -> int:
        """Allocate an entry for a primary miss; returns its index."""
        index = self._index
        if line_addr in index:
            raise RuntimeError(
                f"MSHR for line {line_addr:#x} already allocated")
        used = len(index)
        if used >= self.capacity:
            raise RuntimeError("MSHR file full")
        entry = self._free.pop()
        index[line_addr] = entry
        self._kernel[entry] = kernel
        waiters = self._waiters[entry]
        waiters.clear()
        waiters.append(waiter)
        if used >= self.peak_used:
            self.peak_used = used + 1
        return entry

    def merge(self, line_addr: int, waiter: int) -> int:
        """Attach a secondary miss to an outstanding entry."""
        entry = self._index[line_addr]
        waiters = self._waiters[entry]
        if len(waiters) >= self.merge_limit:
            raise RuntimeError("MSHR merge limit exceeded")
        waiters.append(waiter)
        return entry

    def release(self, line_addr: int) -> List[int]:
        """Free the entry when its fill returns; the caller fans out
        the returned waiter list *before* the entry can be reused."""
        try:
            entry = self._index.pop(line_addr)
        except KeyError:
            raise RuntimeError(
                f"no MSHR outstanding for line {line_addr:#x}") from None
        self._free.append(entry)
        return self._waiters[entry]

    def occupancy_by_kernel(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        kernel = self._kernel
        for entry in self._index.values():
            k = kernel[entry]
            out[k] = out.get(k, 0) + 1
        return out
