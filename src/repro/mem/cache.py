"""Set-associative cache tag store and the L1 data cache controller.

The L1D follows the paper's Table 1 policies: xor-set-indexing,
allocate-on-miss, LRU replacement, write-evict/write-no-allocate
(WEWN).  A read miss must secure *three* resources — a line slot (the
allocate-on-miss reservation), an MSHR entry, and a miss-queue entry —
and failure to secure any of them is a **reservation failure** that
stalls the memory pipeline (§2.1).  The controller reports which
resource failed, which the stats layer and DMIL use.

The same tag store is reused by the L2 controller in
:mod:`repro.mem.subsystem` and by the UCP shadow tags in
:mod:`repro.core.cache_partition`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import CacheConfig
from repro.mem.mshr import MSHRFile


class AccessResult:
    """Outcome labels for one cache access attempt."""

    HIT = "hit"
    MISS = "miss"                      # primary miss, resources secured
    MISS_MERGED = "miss_merged"        # secondary miss, merged into MSHR
    RSFAIL_LINE = "rsfail_line"        # no evictable line slot in set
    RSFAIL_MSHR = "rsfail_mshr"        # MSHR file full
    RSFAIL_MERGE = "rsfail_merge"      # MSHR merge list full
    RSFAIL_MISSQ = "rsfail_missq"      # miss queue full

    RSFAILS = frozenset((RSFAIL_LINE, RSFAIL_MSHR, RSFAIL_MERGE, RSFAIL_MISSQ))


#: the two classes of L1 resource release that happen outside
#: ``access_slot``: a fill (frees the line reservation, the MSHR entry
#: and its merge list) and a miss-queue drain (frees one queue entry).
RELEASE_FILL, RELEASE_DRAIN = 0, 1

#: reservation failure -> the release class that can change it.  Each
#: verdict is decided by the first failing test on one path through
#: ``PooledL1DCache.access_slot``; a release of the other class leaves
#: that test, and every test before it, as they were (docs/PERF.md
#: section 3 walks the paths).
RSFAIL_RELEASE = {
    AccessResult.RSFAIL_LINE: RELEASE_FILL,
    AccessResult.RSFAIL_MSHR: RELEASE_FILL,
    AccessResult.RSFAIL_MERGE: RELEASE_FILL,
    AccessResult.RSFAIL_MISSQ: RELEASE_DRAIN,
}


class _Line:
    __slots__ = ("tag", "valid", "reserved", "dirty", "kernel", "last_use")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.reserved = False
        self.dirty = False
        self.kernel = -1
        self.last_use = 0


class CacheStats:
    """Per-kernel access counters for one cache instance."""

    def __init__(self) -> None:
        self.accesses: Dict[int, int] = defaultdict(int)
        self.hits: Dict[int, int] = defaultdict(int)
        self.misses: Dict[int, int] = defaultdict(int)
        self.rsfails: Dict[int, int] = defaultdict(int)
        self.rsfail_reasons: Dict[str, int] = defaultdict(int)
        self.writes: Dict[int, int] = defaultdict(int)
        self.bypasses: Dict[int, int] = defaultdict(int)

    def miss_rate(self, kernel: int) -> float:
        acc = self.accesses[kernel]
        return self.misses[kernel] / acc if acc else 0.0

    def rsfail_rate(self, kernel: int) -> float:
        acc = (self.accesses[kernel] + self.writes[kernel]
               + self.bypasses[kernel])
        return self.rsfails[kernel] / acc if acc else 0.0


class SetAssocCache:
    """Tag store with LRU replacement, reservation (allocate-on-miss)
    support, and optional per-kernel way partitioning (UCP)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._xor = config.xor_index
        self._sets: List[List[_Line]] = [
            [_Line() for _ in range(self.assoc)] for _ in range(self.num_sets)
        ]
        self._use_clock = 0
        #: kernel -> allotted ways; None disables partitioning.
        self.partition: Optional[Dict[int, int]] = None

    def set_index(self, line_addr: int) -> int:
        sets = self.num_sets
        if self._xor:
            return (line_addr ^ (line_addr // sets)) % sets
        return line_addr % sets

    def _touch(self, line: _Line) -> None:
        self._use_clock += 1
        line.last_use = self._use_clock

    def probe(self, line_addr: int) -> Optional[_Line]:
        """Find the line without updating LRU state."""
        sets = self.num_sets
        if self._xor:
            idx = (line_addr ^ (line_addr // sets)) % sets
        else:
            idx = line_addr % sets
        for line in self._sets[idx]:
            if line.tag == line_addr and (line.valid or line.reserved):
                return line
        return None

    def lookup(self, line_addr: int) -> Optional[_Line]:
        """Find the line and mark it most-recently-used if valid."""
        sets = self.num_sets
        if self._xor:
            idx = (line_addr ^ (line_addr // sets)) % sets
        else:
            idx = line_addr % sets
        for line in self._sets[idx]:
            if line.tag == line_addr and (line.valid or line.reserved):
                if line.valid:
                    self._use_clock += 1
                    line.last_use = self._use_clock
                return line
        return None

    def _candidate_victims(self, target_set: List[_Line], kernel: int) -> List[_Line]:
        free = [ln for ln in target_set if not ln.valid and not ln.reserved]
        if self.partition is None:
            if free:
                return free
            return [ln for ln in target_set if not ln.reserved]
        # UCP enforcement: a kernel at or over its allocation may only
        # evict its own lines; under-allocated kernels prefer invalid
        # slots, then lines of kernels exceeding their own allocation.
        quota = self.partition.get(kernel, self.assoc)
        mine = sum(1 for ln in target_set
                   if (ln.valid or ln.reserved) and ln.kernel == kernel)
        if mine >= quota:
            return [ln for ln in target_set
                    if ln.valid and not ln.reserved and ln.kernel == kernel]
        if free:
            return free
        counts: Dict[int, int] = defaultdict(int)
        for ln in target_set:
            if ln.valid or ln.reserved:
                counts[ln.kernel] += 1
        over = [ln for ln in target_set
                if ln.valid and not ln.reserved
                and counts[ln.kernel] > self.partition.get(ln.kernel, self.assoc)]
        if over:
            return over
        return [ln for ln in target_set if ln.valid and not ln.reserved]

    def reserve(self, line_addr: int, kernel: int) -> Tuple[bool, bool, int]:
        """Allocate-on-miss: reserve a slot for an outstanding fill.

        Returns ``(ok, evicted_dirty, evicted_tag)``; ``ok`` False means
        no evictable slot exists (a line reservation failure).
        """
        target_set = self._sets[self.set_index(line_addr)]
        if self.partition is None:
            # Fused victim scan (the common, unpartitioned case): the
            # LRU free slot if any, else the LRU unreserved line.  The
            # strict ``<`` keeps first-wins tie-breaking, matching
            # ``min`` over the candidate list.
            victim = None
            best_free = None
            best_any = None
            for ln in target_set:
                if ln.reserved:
                    continue
                lu = ln.last_use
                if not ln.valid and (best_free is None
                                     or lu < best_free.last_use):
                    best_free = ln
                if best_any is None or lu < best_any.last_use:
                    best_any = ln
            victim = best_free if best_free is not None else best_any
            if victim is None:
                return False, False, -1
        else:
            victims = self._candidate_victims(target_set, kernel)
            if not victims:
                return False, False, -1
            victim = min(victims, key=lambda ln: ln.last_use)
        evicted_dirty = victim.valid and victim.dirty
        evicted_tag = victim.tag
        victim.tag = line_addr
        victim.valid = False
        victim.reserved = True
        victim.dirty = False
        victim.kernel = kernel
        self._touch(victim)
        return True, evicted_dirty, evicted_tag

    def fill(self, line_addr: int) -> None:
        """Complete an outstanding reservation (the fill arrived)."""
        line = self.probe(line_addr)
        if line is None or not line.reserved:
            # The reservation may have been made under a different
            # partition configuration; insert fresh if possible.
            ok, _, _ = self.reserve(line_addr, kernel=-1)
            if not ok:
                return
            line = self.probe(line_addr)
            assert line is not None
        line.reserved = False
        line.valid = True
        self._touch(line)

    def invalidate(self, line_addr: int) -> None:
        line = self.probe(line_addr)
        if line is not None and line.valid:
            line.valid = False
            line.tag = -1
            line.dirty = False

    def occupancy_by_kernel(self) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        for target_set in self._sets:
            for line in target_set:
                if line.valid or line.reserved:
                    out[line.kernel] += 1
        return dict(out)


class L1DCache:
    """Per-SM L1 data cache controller (tag store + MSHRs + miss queue).

    ``access`` performs one request's lookup.  On a primary miss the
    controller secures a line slot, an MSHR, and a miss-queue entry
    before accepting; the miss queue is drained into the interconnect
    by :class:`repro.mem.subsystem.MemorySubsystem`.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.tags = SetAssocCache(config)
        self.mshrs = MSHRFile(config.mshrs, config.mshr_merge)
        self.miss_queue: Deque[object] = deque()
        self.stats = CacheStats()

    @property
    def miss_queue_full(self) -> bool:
        return len(self.miss_queue) >= self.config.miss_queue

    def access(self, request, cycle: int) -> str:
        """Attempt one request; returns an :class:`AccessResult` label.

        Reservation failures leave all state untouched so the LSU can
        replay the request next cycle (the paper's stall semantics).
        """
        kernel = request.kernel
        line_addr = request.line
        stats = self.stats

        if request.bypass and not request.is_write:
            # Cache bypassing (§4.5): skip lookup and allocation — the
            # request only needs a miss-queue slot to travel to L2.  It
            # relieves L1 contention but offloads every transaction to
            # the lower levels.
            if self.miss_queue_full:
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
                return AccessResult.RSFAIL_MISSQ
            stats.bypasses[kernel] += 1
            self.miss_queue.append(request)
            return AccessResult.MISS

        if request.is_write:
            # WEWN: write-evict + write-no-allocate.  The write needs a
            # miss-queue slot to travel to L2; it never allocates and
            # never uses an MSHR.
            if self.miss_queue_full:
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
                return AccessResult.RSFAIL_MISSQ
            stats.writes[kernel] += 1
            self.tags.invalidate(line_addr)
            self.miss_queue.append(request)
            return AccessResult.MISS

        stats.accesses[kernel] += 1
        line = self.tags.lookup(line_addr)
        if line is not None:
            if line.valid:
                stats.hits[kernel] += 1
                return AccessResult.HIT
            # Secondary miss (reserved line): merge into the MSHR.
            if not self.mshrs.try_merge(line_addr, request):
                stats.accesses[kernel] -= 1
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MERGE] += 1
                return AccessResult.RSFAIL_MERGE
            stats.misses[kernel] += 1
            return AccessResult.MISS_MERGED

        # Primary miss: need line slot + MSHR + miss-queue entry.
        failure = None
        if not self.mshrs.can_allocate():
            failure = AccessResult.RSFAIL_MSHR
        elif self.miss_queue_full:
            failure = AccessResult.RSFAIL_MISSQ
        if failure is None:
            ok, _, _ = self.tags.reserve(line_addr, kernel)
            if not ok:
                failure = AccessResult.RSFAIL_LINE
        if failure is not None:
            stats.accesses[kernel] -= 1
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[failure] += 1
            return failure

        self.mshrs.allocate(line_addr, kernel, request)
        self.miss_queue.append(request)
        stats.misses[kernel] += 1
        return AccessResult.MISS

    def fill(self, line_addr: int) -> List[object]:
        """A fill returned from L2: complete the line and release the
        MSHR.  Returns the requests waiting on this line."""
        self.tags.fill(line_addr)
        entry = self.mshrs.release(line_addr)
        return entry.waiters


class PooledL1DCache:
    """The production machine's L1D controller, the allocation-free
    twin of :class:`L1DCache`: an :class:`~repro.mem.pool.ArrayTagStore`
    tag store, an :class:`~repro.mem.pool.ArrayMSHRFile`, and a miss
    queue of :class:`~repro.mem.pool.RequestPool` slot ids.

    ``access_slot`` is ``L1DCache.access`` with the request fields
    passed as scalars (the LSU already holds them) — every stats bump,
    LRU touch and resource check happens in the same order, so the two
    controllers are bit-identical (the production-vs-oracle sweeps,
    docs/PERF.md §6).

    On top, the controller tells the LSU's stall memo and the SM's
    stall sleep *which* resource was released outside ``access_slot``:
    ``version`` and ``on_release`` hold one entry per release class
    (:data:`RELEASE_FILL`, :data:`RELEASE_DRAIN`), and a stalled
    verdict only ever waits on one of them (:data:`RSFAIL_RELEASE`).
    """

    __slots__ = ("config", "pool", "tags", "mshrs", "miss_queue", "stats",
                 "version", "on_release", "_mq_pending", "_miss_queue_cap")

    def __init__(self, config: CacheConfig, pool, mq_pending=None):
        # Imported here: repro.mem.pool imports nothing from this
        # module's consumers, but keeping cache.py's import graph
        # object-path-only preserves the reference path's independence.
        from repro.mem.pool import ArrayMSHRFile, ArrayTagStore
        self.config = config
        self.pool = pool
        self.tags = ArrayTagStore(config)
        self.mshrs = ArrayMSHRFile(config.mshrs, config.mshr_merge)
        self.miss_queue: Deque[int] = deque()
        self.stats = CacheStats()
        #: one counter per release class (``RELEASE_FILL``,
        #: ``RELEASE_DRAIN``), bumped whenever a resource an
        #: ``access_slot`` outcome depends on is released *outside*
        #: ``access_slot`` itself: a fill freeing the line + MSHR here,
        #: the subsystem draining a miss-queue slot.  The LSU uses the
        #: entry of the class a failure waits on
        #: (:data:`RSFAIL_RELEASE`) to memoise a stalled request's
        #: replay verdict: same slot + same version (+ same way
        #: partition) must fail the same way, so only the stats bumps
        #: need replaying.
        self.version = [0, 0]
        #: per release class, called right after that class's
        #: ``version`` bump while the owning SM is in a memory-stall
        #: sleep, whose premise is exactly "the memoised verdict still
        #: holds"; the SM arms the class its verdict waits on when it
        #: goes to sleep (``LoadStoreUnit.arm_release``) and disarms it
        #: in the call.  None = nobody sleeps on that class, and a
        #: release costs one comparison.
        self.on_release = [None, None]
        #: shared one-cell counter of queued miss entries across all
        #: L1s (owned by the pooled subsystem; gives its idle check
        #: an O(1) "any miss queue non-empty" answer).
        self._mq_pending = mq_pending if mq_pending is not None else [0]
        self._miss_queue_cap = config.miss_queue

    @property
    def miss_queue_full(self) -> bool:
        return len(self.miss_queue) >= self._miss_queue_cap

    def probe_hit(self, line_addr: int) -> int:
        """The way a load of ``line_addr`` hits in (resident and valid),
        or -1.  Read-only: a caller may probe every line of an
        instruction and commit none."""
        tags = self.tags
        way = tags.find(line_addr)
        return way if way >= 0 and tags.valid[way] else -1

    def commit_hit(self, way: int, kernel: int) -> None:
        """Everything a load hit does to the L1 — the access and hit
        counts and the lookup's LRU bump; never validity, so a hit
        cannot change the verdict of any other probe.  The one hit arm:
        ``access_slot`` and the SM's issue-through both end here."""
        stats = self.stats
        stats.accesses[kernel] += 1
        self.tags.touch(way)
        stats.hits[kernel] += 1

    def access_slot(self, slot: int, line_addr: int, kernel: int,
                    is_write: bool, bypass: bool) -> str:
        """``L1DCache.access`` over a pool slot; same result labels,
        same stats/LRU mutation order, reservation failures leave all
        state untouched."""
        stats = self.stats
        miss_queue = self.miss_queue

        if bypass and not is_write:
            if len(miss_queue) >= self._miss_queue_cap:
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
                return AccessResult.RSFAIL_MISSQ
            stats.bypasses[kernel] += 1
            miss_queue.append(slot)
            self._mq_pending[0] += 1
            return AccessResult.MISS

        if is_write:
            if len(miss_queue) >= self._miss_queue_cap:
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
                return AccessResult.RSFAIL_MISSQ
            stats.writes[kernel] += 1
            self.tags.invalidate(line_addr)
            miss_queue.append(slot)
            self._mq_pending[0] += 1
            return AccessResult.MISS

        tags = self.tags
        way = tags.find(line_addr)
        if way >= 0 and tags.valid[way]:
            self.commit_hit(way, kernel)
            return AccessResult.HIT
        stats.accesses[kernel] += 1
        if way >= 0:
            # Secondary miss (reserved line): merge into the MSHR.
            if not self.mshrs.try_merge(line_addr, slot):
                stats.accesses[kernel] -= 1
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MERGE] += 1
                return AccessResult.RSFAIL_MERGE
            stats.misses[kernel] += 1
            return AccessResult.MISS_MERGED

        # Primary miss: need line slot + MSHR + miss-queue entry.
        failure = None
        if not self.mshrs.can_allocate():
            failure = AccessResult.RSFAIL_MSHR
        elif len(miss_queue) >= self._miss_queue_cap:
            failure = AccessResult.RSFAIL_MISSQ
        if failure is None:
            ok, _, _ = tags.reserve(line_addr, kernel)
            if not ok:
                failure = AccessResult.RSFAIL_LINE
        if failure is not None:
            stats.accesses[kernel] -= 1
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[failure] += 1
            return failure

        self.mshrs.allocate(line_addr, kernel, slot)
        miss_queue.append(slot)
        self._mq_pending[0] += 1
        stats.misses[kernel] += 1
        return AccessResult.MISS

    def fill(self, line_addr: int) -> List[int]:
        """A fill returned from L2: returns the waiting slot ids (the
        recycled list is valid until the MSHR entry is re-allocated)."""
        self.version[RELEASE_FILL] += 1
        hook = self.on_release[RELEASE_FILL]
        if hook is not None:
            hook()
        self.tags.fill(line_addr)
        return self.mshrs.release(line_addr)
