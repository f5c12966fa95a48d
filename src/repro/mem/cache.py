"""Set-associative cache tag store and the L1 data cache controller.

The L1D follows the paper's Table 1 policies: xor-set-indexing,
allocate-on-miss, LRU replacement, write-evict/write-no-allocate
(WEWN).  A read miss must secure *three* resources — a line slot (the
allocate-on-miss reservation), an MSHR entry, and a miss-queue entry —
and failure to secure any of them is a **reservation failure** that
stalls the memory pipeline (§2.1).  The controller reports which
resource failed, which the stats layer and DMIL use.

The same tag store is reused by the L2 controller in
:mod:`repro.mem.subsystem`; UCP (:mod:`repro.core.cache_partition`)
sets its per-kernel way partition, and its shadow tags index sets
through the same :func:`set_indexer`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

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
#: ``access``: a fill (frees the line reservation, the MSHR entry and
#: its merge list) and a miss-queue drain (frees one queue entry).
RELEASE_FILL, RELEASE_DRAIN = 0, 1

#: reservation failure -> the release class that can change it.  Each
#: verdict is decided by the first failing test on one path through
#: ``L1DCache.access``; a release of the other class leaves
#: that test, and every test before it, as they were (docs/PERF.md
#: section 3 walks the paths).
RSFAIL_RELEASE = {
    AccessResult.RSFAIL_LINE: RELEASE_FILL,
    AccessResult.RSFAIL_MSHR: RELEASE_FILL,
    AccessResult.RSFAIL_MERGE: RELEASE_FILL,
    AccessResult.RSFAIL_MISSQ: RELEASE_DRAIN,
}


def set_indexer(config: CacheConfig) -> Callable[[int], int]:
    """The line-address -> set function of ``config``'s geometry: the
    low bits xor-folded with the next ones when ``xor_index`` (Table 1),
    else the low bits alone.  The tag store and UCP's shadow tags both
    index through it; built once per tag array, so indexing a line is
    one call with no config reads."""
    sets = config.num_sets
    if config.xor_index:
        return lambda line_addr: (line_addr ^ (line_addr // sets)) % sets
    return lambda line_addr: line_addr % sets


class _Line:
    __slots__ = ("tag", "valid", "reserved", "dirty", "kernel", "set_idx")

    def __init__(self, set_idx: int) -> None:
        self.tag = -1
        self.valid = False
        self.reserved = False
        self.dirty = False
        self.kernel = -1
        #: the index of this line's set.  An index, not the set's list:
        #: a back-reference would make every set a reference cycle, and
        #: a dropped machine's lines would wait for a full collection.
        self.set_idx = set_idx


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


class SetAssocCache:
    """Tag store with LRU replacement, reservation (allocate-on-miss)
    support, and optional per-kernel way partitioning (UCP).

    Indexed rather than scanned (docs/PERF.md section 10): a dict maps
    each tag to its one valid-or-reserved line, so ``probe`` /
    ``lookup`` / ``fill`` / ``invalidate`` are one lookup; each set's
    list holds its lines least recently used first, a touch moving the
    line to the end (never-touched ways stay at the front in way
    order); and a per-set count of free lines — neither valid nor
    reserved — tells the victim search whether to look for one.

    A set's lines are built when ``reserve`` first indexes it (until
    then its entry is None and its free count ``assoc``): a run holds
    only the sets it touches.  Every other method reaches a line
    through the tag map, so it only ever sees lines of built sets, and
    a set built in way order is exactly the never-touched set an eager
    store would hold (docs/PERF.md, "Host memory follows what a run
    touches").
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.set_index = set_indexer(config)
        #: per set, its lines least recently used first; None until
        #: ``reserve`` first indexes the set.
        self._sets: List[Optional[List[_Line]]] = [None] * self.num_sets
        #: tag -> its valid or reserved line.
        self._lines: Dict[int, _Line] = {}
        #: per set, how many of its lines are neither valid nor reserved.
        self._free = [self.assoc] * self.num_sets
        #: kernel -> allotted ways; None disables partitioning.
        self.partition: Optional[Dict[int, int]] = None

    def touch(self, line: _Line) -> None:
        """Make ``line`` the most recently used of its set."""
        lru = self._sets[line.set_idx]
        if lru[-1] is not line:
            lru.remove(line)
            lru.append(line)

    def probe(self, line_addr: int) -> Optional[_Line]:
        """Find the line without updating LRU state."""
        return self._lines.get(line_addr)

    def lookup(self, line_addr: int) -> Optional[_Line]:
        """Find the line and mark it most-recently-used if valid."""
        line = self._lines.get(line_addr)
        if line is not None and line.valid:
            lru = self._sets[line.set_idx]
            if lru[-1] is not line:
                lru.remove(line)
                lru.append(line)
        return line

    def _partition_victim(self, lru: List[_Line], kernel: int,
                          free: int) -> Optional[_Line]:
        """UCP enforcement: a kernel at or over its allocation may only
        evict its own lines; under-allocated kernels prefer free slots,
        then lines of kernels exceeding their own allocation.  Each
        rule takes its first candidate in LRU order."""
        partition = self.partition
        assoc = self.assoc
        counts: Dict[int, int] = defaultdict(int)
        for ln in lru:
            if ln.valid or ln.reserved:
                counts[ln.kernel] += 1
        if counts[kernel] >= partition.get(kernel, assoc):
            for ln in lru:
                if ln.valid and ln.kernel == kernel:
                    return ln
            return None
        if free:
            for ln in lru:
                if not ln.valid and not ln.reserved:
                    return ln
        for ln in lru:
            if ln.valid and counts[ln.kernel] > partition.get(ln.kernel,
                                                              assoc):
                return ln
        for ln in lru:
            if ln.valid:
                return ln
        return None

    def reserve(self, line_addr: int, kernel: int) -> Tuple[bool, bool, int]:
        """Allocate-on-miss: reserve a slot for an outstanding fill.

        Returns ``(ok, evicted_dirty, evicted_tag)``; ``ok`` False means
        no evictable slot exists (a line reservation failure).  The line
        must not be valid or reserved already: each tag has one line.
        """
        lines = self._lines
        if line_addr in lines:
            raise RuntimeError(f"line {line_addr:#x} is already valid or "
                               f"reserved")
        idx = self.set_index(line_addr)
        lru = self._sets[idx]
        if lru is None:
            lru = self._sets[idx] = [_Line(idx) for _ in range(self.assoc)]
        free = self._free[idx]
        victim = None
        if self.partition is not None:
            victim = self._partition_victim(lru, kernel, free)
        elif free:
            # The LRU free slot.
            for ln in lru:
                if not ln.valid and not ln.reserved:
                    victim = ln
                    break
        else:
            # No free slot: the LRU line with no fill outstanding.
            for ln in lru:
                if not ln.reserved:
                    victim = ln
                    break
        if victim is None:
            return False, False, -1
        evicted_tag = victim.tag
        if victim.valid:
            evicted_dirty = victim.dirty
            del lines[evicted_tag]
        else:
            evicted_dirty = False
            self._free[idx] = free - 1
        lines[line_addr] = victim
        victim.tag = line_addr
        victim.valid = False
        victim.reserved = True
        victim.dirty = False
        victim.kernel = kernel
        self.touch(victim)
        return True, evicted_dirty, evicted_tag

    def fill(self, line_addr: int) -> None:
        """Complete an outstanding reservation (the fill arrived)."""
        line = self._lines.get(line_addr)
        if line is None or not line.reserved:
            raise RuntimeError(f"no reservation outstanding for line "
                               f"{line_addr:#x}")
        line.reserved = False
        line.valid = True
        self.touch(line)

    def invalidate(self, line_addr: int) -> None:
        line = self._lines.get(line_addr)
        if line is not None and line.valid:
            del self._lines[line_addr]
            self._free[line.set_idx] += 1
            line.valid = False
            line.tag = -1
            line.dirty = False

    def occupancy_by_kernel(self) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        for line in self._lines.values():
            out[line.kernel] += 1
        return dict(out)


class L1DCache:
    """Per-SM L1 data cache controller (tag store + MSHRs + miss queue).

    ``access`` performs one request's lookup.  On a primary miss the
    controller secures a line slot, an MSHR, and a miss-queue entry
    before accepting; the miss queue is drained into the interconnect
    by :class:`repro.mem.subsystem.MemorySubsystem`.

    Both machines run this controller.  The production machine's LSU
    and SM also use the hooks below: ``version`` / ``on_release`` tell
    the stall memo and the stall sleep *which* resource was released
    outside ``access`` (one entry per :data:`RELEASE_FILL`,
    :data:`RELEASE_DRAIN`; a stalled verdict only ever waits on one of
    them, :data:`RSFAIL_RELEASE`), and ``probe_hit`` / ``commit_hit``
    split a load hit for issue-through.  The oracle never arms them.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.tags = SetAssocCache(config)
        self.mshrs = MSHRFile(config.mshrs, config.mshr_merge)
        self.miss_queue: Deque[object] = deque()
        self.stats = CacheStats()
        #: one counter per release class, bumped whenever a resource an
        #: ``access`` outcome depends on is released *outside* ``access``
        #: itself: a fill freeing the line + MSHR here, the subsystem
        #: draining a miss-queue entry.  The LSU's stall memo keys a
        #: stalled request's verdict on the entry of the class it waits
        #: on: same request + same version (+ same way partition) must
        #: fail the same way, so only the stats bumps need replaying.
        self.version = [0, 0]
        #: per release class, called right after that class's
        #: ``version`` bump while the owning SM sleeps on a memoised
        #: verdict (``LoadStoreUnit.arm_release``); None = nobody
        #: sleeps on that class, and a release costs one comparison.
        self.on_release = [None, None]

    @property
    def miss_queue_full(self) -> bool:
        return len(self.miss_queue) >= self.config.miss_queue

    def probe_hit(self, line_addr: int) -> Optional[_Line]:
        """The line a load of ``line_addr`` hits in (resident and
        valid), or None.  Read-only: a caller may probe every line of an
        instruction and commit none."""
        line = self.tags.probe(line_addr)
        return line if line is not None and line.valid else None

    def commit_hit(self, line: _Line, kernel: int) -> None:
        """Everything a load hit does to the L1, in ``access``'s order:
        the access count, the lookup's LRU bump and the hit count; never
        validity, so a hit cannot change the verdict of any other
        probe."""
        stats = self.stats
        stats.accesses[kernel] += 1
        self.tags.touch(line)
        stats.hits[kernel] += 1

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
        self.version[RELEASE_FILL] += 1
        hook = self.on_release[RELEASE_FILL]
        if hook is not None:
            hook()
        self.tags.fill(line_addr)
        entry = self.mshrs.release(line_addr)
        return entry.waiters

