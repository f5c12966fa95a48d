"""Unit tests for the set-associative tag store and the L1D controller
(reservation-failure semantics of paper §2.1), and the indexed tag
store held to a timestamp-scan reference model."""

import gc
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MAXWELL_CONFIG, CacheConfig
from repro.mem.cache import (AccessResult, L1DCache, SetAssocCache, _Line,
                             set_indexer)
from repro.mem.subsystem import MemRequest


def small_cache_config(**overrides):
    defaults = dict(size_bytes=4 * 128, line_size=128, assoc=2,
                    mshrs=2, miss_queue=2, xor_index=False)
    defaults.update(overrides)
    return CacheConfig(**defaults)


def read(line, kernel=0, sm=0):
    return MemRequest(line=line, kernel=kernel, sm_id=sm, is_write=False)


def write(line, kernel=0, sm=0):
    return MemRequest(line=line, kernel=kernel, sm_id=sm, is_write=True)


class TestSetAssocCache:
    def test_reserve_then_fill_makes_line_valid(self):
        tags = SetAssocCache(small_cache_config())
        ok, dirty, _ = tags.reserve(0, kernel=0)
        assert ok and not dirty
        line = tags.probe(0)
        assert line.reserved and not line.valid
        tags.fill(0)
        assert tags.probe(0).valid

    def test_lru_victim_selection(self):
        # 2 sets x 2 ways, no xor: lines 0,2 -> set 0.
        tags = SetAssocCache(small_cache_config())
        for addr in (0, 2):
            tags.reserve(addr, 0)
            tags.fill(addr)
        tags.lookup(0)  # make line 0 MRU
        tags.reserve(4, 0)  # set 0 full -> evict LRU (line 2)
        assert tags.probe(2) is None
        assert tags.probe(0) is not None

    def test_reserved_lines_are_not_evictable(self):
        tags = SetAssocCache(small_cache_config())
        assert tags.reserve(0, 0)[0]
        assert tags.reserve(2, 0)[0]
        ok, _, _ = tags.reserve(4, 0)
        assert not ok, "a set full of reserved lines must refuse allocation"

    def test_invalidate(self):
        tags = SetAssocCache(small_cache_config())
        tags.reserve(0, 0)
        tags.fill(0)
        tags.invalidate(0)
        assert tags.probe(0) is None

    def test_partition_enforced_on_victims(self):
        # 1 set x 4 ways; kernel 0 allowed 1 way, kernel 1 allowed 3.
        cfg = small_cache_config(size_bytes=4 * 128, assoc=4)
        tags = SetAssocCache(cfg)
        tags.partition = {0: 1, 1: 3}
        tags.reserve(0, kernel=0)
        tags.fill(0)
        tags.reserve(1, kernel=0)  # kernel 0 over quota: must evict its own
        assert tags.probe(0) is None, "kernel 0 must evict its own line"
        occ = tags.occupancy_by_kernel()
        assert occ.get(0, 0) == 1

    def test_partition_over_quota_with_only_reserved_lines_fails(self):
        cfg = small_cache_config(size_bytes=4 * 128, assoc=4)
        tags = SetAssocCache(cfg)
        tags.partition = {0: 1, 1: 3}
        tags.reserve(0, kernel=0)  # reserved, not evictable
        ok, _, _ = tags.reserve(1, kernel=0)
        assert not ok

    def test_xor_indexing_spreads_aliases(self):
        cfg = CacheConfig(size_bytes=16 * 128, line_size=128, assoc=2,
                          mshrs=2, miss_queue=2, xor_index=True)
        tags = SetAssocCache(cfg)
        plain = CacheConfig(size_bytes=16 * 128, line_size=128, assoc=2,
                            mshrs=2, miss_queue=2, xor_index=False)
        flat = SetAssocCache(plain)
        stride_sets_plain = {flat.set_index(i * flat.num_sets) for i in range(8)}
        stride_sets_xor = {tags.set_index(i * tags.num_sets) for i in range(8)}
        assert len(stride_sets_plain) == 1
        assert len(stride_sets_xor) > 1

    def test_fill_without_a_reservation_is_an_error(self):
        tags = SetAssocCache(small_cache_config())
        with pytest.raises(RuntimeError, match="no reservation"):
            tags.fill(0)
        tags.reserve(0, 0)
        tags.fill(0)
        with pytest.raises(RuntimeError, match="no reservation"):
            tags.fill(0)  # valid now, not reserved
        assert_tag_index_exact(tags)

    def test_reserving_a_resident_line_is_an_error(self):
        tags = SetAssocCache(small_cache_config())
        tags.reserve(0, 0)
        with pytest.raises(RuntimeError, match="already"):
            tags.reserve(0, 1)  # reserved
        tags.fill(0)
        with pytest.raises(RuntimeError, match="already"):
            tags.reserve(0, 1)  # valid
        assert tags.occupancy_by_kernel() == {0: 1}
        assert_tag_index_exact(tags)


def assert_tag_index_exact(tags):
    """The index holds what the sets hold: the tag map is exactly the
    valid-or-reserved lines under their tags (one line per tag, each in
    the set its tag indexes to), and each set's free count is its
    number of lines that are neither valid nor reserved.  A set no
    ``reserve`` has indexed is unbuilt and reads as ``assoc``
    never-touched ways: all free, and no resident tag indexes to it."""
    resident = {}
    for idx, lru in enumerate(tags._sets):
        if lru is None:
            assert tags._free[idx] == tags.assoc
            assert not any(tags.set_index(tag) == idx for tag in tags._lines)
            continue
        assert len(lru) == tags.assoc
        for line in lru:
            assert line.set_idx == idx
            assert not (line.valid and line.reserved)
            if line.valid or line.reserved:
                assert line.tag not in resident
                assert tags.set_index(line.tag) == idx
                resident[line.tag] = line
    assert tags._lines == resident
    assert tags._free == [
        tags.assoc if lru is None
        else sum(not line.valid and not line.reserved for line in lru)
        for lru in tags._sets]


# ----------------------------------------------------------------------
# The indexed tag store against the timestamp scans it replaced: every
# line carries the clock value of its last touch, and each query walks
# its set's ways (never-touched ways tie at 0; ``min`` takes the lowest).
class StampedLine:
    def __init__(self):
        self.tag, self.valid, self.reserved = -1, False, False
        self.dirty, self.kernel, self.last_use = False, -1, 0


class TimestampTags:
    def __init__(self, config):
        self.assoc = config.assoc
        self.set_index = set_indexer(config)
        self.sets = [[StampedLine() for _ in range(config.assoc)]
                     for _ in range(config.num_sets)]
        self.clock = 0
        self.partition = None

    def touch(self, line):
        self.clock += 1
        line.last_use = self.clock

    def probe(self, addr):
        for line in self.sets[self.set_index(addr)]:
            if line.tag == addr and (line.valid or line.reserved):
                return line
        return None

    def lookup(self, addr):
        line = self.probe(addr)
        if line is not None and line.valid:
            self.touch(line)
        return line

    def candidates(self, lines, kernel):
        free = [ln for ln in lines if not ln.valid and not ln.reserved]
        if self.partition is None:
            return free or [ln for ln in lines if not ln.reserved]
        quota = self.partition.get
        mine = sum(1 for ln in lines
                   if (ln.valid or ln.reserved) and ln.kernel == kernel)
        if mine >= quota(kernel, self.assoc):
            return [ln for ln in lines
                    if ln.valid and not ln.reserved and ln.kernel == kernel]
        if free:
            return free
        counts = defaultdict(int)
        for ln in lines:
            if ln.valid or ln.reserved:
                counts[ln.kernel] += 1
        evictable = [ln for ln in lines if ln.valid and not ln.reserved]
        return [ln for ln in evictable
                if counts[ln.kernel] > quota(ln.kernel, self.assoc)
                ] or evictable

    def reserve(self, addr, kernel):
        victims = self.candidates(self.sets[self.set_index(addr)], kernel)
        if not victims:
            return False, False, -1
        victim = min(victims, key=lambda ln: ln.last_use)
        result = True, victim.valid and victim.dirty, victim.tag
        victim.tag, victim.valid, victim.reserved = addr, False, True
        victim.dirty, victim.kernel = False, kernel
        self.touch(victim)
        return result

    def fill(self, addr):
        line = self.probe(addr)
        line.reserved, line.valid = False, True
        self.touch(line)

    def invalidate(self, addr):
        line = self.probe(addr)
        if line is not None and line.valid:
            line.valid, line.tag, line.dirty = False, -1, False

    def occupancy_by_kernel(self):
        out = defaultdict(int)
        for lines in self.sets:
            for line in lines:
                if line.valid or line.reserved:
                    out[line.kernel] += 1
        return dict(out)


def line_state(line):
    return line and (line.tag, line.valid, line.reserved, line.dirty,
                     line.kernel)


#: weighted so that sets fill up and victims get chosen.
TAG_OPS = ("reserve",) * 4 + ("fill",) * 3 + (
    "lookup", "probe", "invalidate", "dirty", "repartition")


def tag_store_runs(max_ops):
    """(geometry, xor, quotas, partitioned, ops) of one reference-model
    run: 1-4 sets of 1-6 ways, addresses spanning three times the
    lines, kernels 0-2 against random per-kernel way quotas (0
    included) that are on from the start or not, and ``max_ops / 2`` to
    ``max_ops`` operations, each aimed at a resident line or not by a
    coin (a fill's target is a reserved line)."""
    def run(sets, ways):
        op = st.tuples(st.sampled_from(TAG_OPS),
                       st.integers(0, 3 * sets * ways - 1),
                       st.integers(0, 2), st.booleans())
        return st.tuples(
            st.just((sets, ways)), st.booleans(),
            st.dictionaries(st.integers(0, 2), st.integers(0, ways + 1),
                            min_size=1, max_size=3),
            st.booleans(),
            st.lists(op, min_size=max_ops // 2, max_size=max_ops))
    return st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
        lambda geometry: run(*geometry))


def check_against_timestamp_scans(geometry, xor, quotas, partitioned, ops):
    """Drive the indexed store and the reference through ``ops`` and
    compare every answer.  Calls the index forbids — a second line for
    a resident tag, a fill with no reservation — must raise there and
    are not applied to either side; ``repartition`` toggles the quotas
    on and off with reservations outstanding, as UCP swaps partitions."""
    sets, ways = geometry
    config = CacheConfig(size_bytes=sets * ways * 128, line_size=128,
                         assoc=ways, mshrs=1, miss_queue=1, xor_index=xor)
    tags, ref = SetAssocCache(config), TimestampTags(config)
    untouched = [StampedLine() for _ in range(ways)]
    tags.partition = ref.partition = quotas if partitioned else None
    for op, addr, kernel, resident in ops:
        if resident:
            targets = sorted(line.tag for lines in ref.sets for line in lines
                             if line.reserved
                             or (line.valid and op != "fill"))
            if targets:
                addr = targets[addr % len(targets)]
        present = ref.probe(addr)
        if op == "reserve":
            if present is not None:
                with pytest.raises(RuntimeError):
                    tags.reserve(addr, kernel)
                continue
            assert tags.reserve(addr, kernel) == ref.reserve(addr, kernel)
        elif op == "fill":
            if present is None or not present.reserved:
                with pytest.raises(RuntimeError):
                    tags.fill(addr)
                continue
            tags.fill(addr)
            ref.fill(addr)
        elif op == "dirty":  # the L2's write hit
            line, want = tags.lookup(addr), ref.lookup(addr)
            assert line_state(line) == line_state(want)
            if want is not None and want.valid:
                line.dirty = want.dirty = True
        elif op == "repartition":
            tags.partition = ref.partition = (
                None if tags.partition is not None else quotas)
        elif op == "invalidate":
            tags.invalidate(addr)
            ref.invalidate(addr)
        else:
            assert (line_state(getattr(tags, op)(addr))
                    == line_state(getattr(ref, op)(addr)))
        assert tags.occupancy_by_kernel() == ref.occupancy_by_kernel()
        # LRU order is (last_use, way) order (``sorted`` is stable); an
        # unbuilt set is ``ways`` never-touched lines.
        for lru, lines in zip(tags._sets, ref.sets):
            assert ([line_state(line) for line in lru or untouched] == [
                line_state(line)
                for line in sorted(lines, key=lambda ln: ln.last_use)])
    assert_tag_index_exact(tags)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(run=tag_store_runs(max_ops=80))
def test_indexed_tags_pick_the_timestamp_scans_victims(run):
    check_against_timestamp_scans(*run)


def built_sets(tags):
    """The indexes of the sets ``reserve`` has built."""
    return {idx for idx, lru in enumerate(tags._sets) if lru is not None}


class TestSetsBuiltOnFirstAllocation:
    """A tag store holds only the sets a run reserves in."""

    def table1_dc(self):
        from repro.sim.engine import GPU, make_launches
        from repro.workloads.profiles import get_profile
        profile = get_profile("dc")
        launches = make_launches(
            [profile], [profile.max_tbs_per_sm(MAXWELL_CONFIG)],
            MAXWELL_CONFIG)
        return GPU(MAXWELL_CONFIG, launches)

    def test_a_fresh_table1_gpu_has_no_built_set(self):
        memory = self.table1_dc().memory
        assert not built_sets(memory.l2_tags)
        assert memory.l2_tags._free == [MAXWELL_CONFIG.l2.assoc] * len(
            memory.l2_tags._sets)
        assert not any(built_sets(l1.tags) for l1 in memory.l1s)

    def test_a_dc_run_builds_exactly_the_l2_sets_of_its_footprint(self):
        """Every L2 access probes (a read) or looks up (a write) its
        line first; the sets built are those lines' sets, no more.  dc's
        working set is 24 lines: 24 L2 sets, and 24 sets in each L1,
        from 1 000 cycles through the benchmark's 20 000."""
        gpu = self.table1_dc()
        l2 = gpu.memory.l2_tags
        asked = set()
        probe, lookup = l2.probe, l2.lookup

        def asking(method):
            def ask(line_addr):
                asked.add(line_addr)
                return method(line_addr)
            return ask

        l2.probe, l2.lookup = asking(probe), asking(lookup)
        gpu.run(2000)
        assert built_sets(l2) == {l2.set_index(line) for line in asked}
        assert len(built_sets(l2)) == 24
        assert [len(built_sets(l1.tags)) for l1 in gpu.memory.l1s] == [
            24] * MAXWELL_CONFIG.num_sms
        assert_tag_index_exact(l2)

    def test_a_dropped_tag_store_leaves_no_line_to_the_collector(self):
        """A line records its set's index, so no set is a reference
        cycle: dropping a store frees its lines at once."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            tags = SetAssocCache(small_cache_config())
            for addr in (0, 1, 2):
                tags.reserve(addr, 0)
            tags.fill(0)
            tags.lookup(0)
            assert built_sets(tags) == {0, 1}
            del tags
            gc.collect()
            assert not [obj for obj in gc.garbage if isinstance(obj, _Line)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


class TestL1DCache:
    def test_miss_then_hit_after_fill(self):
        l1 = L1DCache(small_cache_config())
        req = read(0)
        assert l1.access(req, 0) == AccessResult.MISS
        waiters = l1.fill(0)
        assert waiters == [req]
        assert l1.access(read(0), 1) == AccessResult.HIT
        assert l1.stats.hits[0] == 1
        assert l1.stats.misses[0] == 1

    def test_secondary_miss_merges(self):
        l1 = L1DCache(small_cache_config())
        first, second = read(0), read(0)
        assert l1.access(first, 0) == AccessResult.MISS
        assert l1.access(second, 0) == AccessResult.MISS_MERGED
        assert len(l1.miss_queue) == 1, "secondary miss must not enter miss queue"
        assert set(l1.fill(0)) == {first, second}

    def test_mshr_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshrs=1, miss_queue=8))
        assert l1.access(read(0), 0) == AccessResult.MISS
        result = l1.access(read(1), 0)
        assert result == AccessResult.RSFAIL_MSHR
        assert l1.stats.rsfails[0] == 1
        # the failed access must not count as an access (it replays)
        assert l1.stats.accesses[0] == 1

    def test_miss_queue_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(miss_queue=1, mshrs=8))
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(1), 0) == AccessResult.RSFAIL_MISSQ

    def test_line_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshrs=8, miss_queue=8))
        # set 0 holds lines 0 and 2 (2 ways); both reserved.
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(2), 0) == AccessResult.MISS
        assert l1.access(read(4), 0) == AccessResult.RSFAIL_LINE

    def test_merge_limit_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshr_merge=1))
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(0), 0) == AccessResult.RSFAIL_MERGE

    def test_replay_after_resource_frees(self):
        l1 = L1DCache(small_cache_config(mshrs=1, miss_queue=8))
        l1.access(read(0), 0)
        blocked = read(1)
        assert l1.access(blocked, 0) == AccessResult.RSFAIL_MSHR
        l1.fill(0)
        assert l1.access(blocked, 1) == AccessResult.MISS

    def test_write_is_wewn(self):
        """Write-evict + write-no-allocate: writes invalidate a present
        line, consume only a miss-queue slot, and never use MSHRs."""
        l1 = L1DCache(small_cache_config(miss_queue=8))
        l1.access(read(0), 0)
        l1.fill(0)
        assert l1.access(write(0), 1) == AccessResult.MISS
        assert len(l1.mshrs) == 0
        assert l1.access(read(0), 2) == AccessResult.MISS, "write evicted the line"

    def test_write_blocked_by_full_miss_queue(self):
        l1 = L1DCache(small_cache_config(miss_queue=1))
        l1.access(read(0), 0)
        assert l1.access(write(8), 0) == AccessResult.RSFAIL_MISSQ

    def test_per_kernel_stats_are_separate(self):
        l1 = L1DCache(small_cache_config(mshrs=8, miss_queue=8))
        l1.access(read(0, kernel=0), 0)
        l1.access(read(1, kernel=1), 0)
        assert l1.stats.accesses[0] == 1
        assert l1.stats.accesses[1] == 1
        assert l1.stats.miss_rate(0) == 1.0
