"""The memory backend: L1 miss queues → interconnect → L2 → DRAM → back.

This module glues the per-SM L1Ds to the shared L2 and DRAM, carrying
:class:`MemRequest` objects through a time-ordered event heap.  The key
behaviour the paper depends on is **backpressure**: when the L2 input
queue, L2 MSHRs or DRAM queues saturate, L1 miss queues stop draining,
L1 MSHRs stay occupied, and the SM-side memory pipeline starts taking
reservation failures — which is exactly the congestion signal DMIL
throttles on (§3.3) and why enlarging one resource merely moves the
bottleneck (§4.3).

L2 policies follow Table 1 (xor-indexed, LRU, allocate-on-miss for
reads).  Writes are modelled as write-through-to-DRAM at the L2
boundary rather than full WBWA; writes carry no dependences in this
model, only bandwidth, so this simplification does not affect any
studied mechanism (see DESIGN.md).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import GPUConfig
from repro.mem.cache import (RELEASE_DRAIN, AccessResult, CacheStats,
                             L1DCache, PooledL1DCache, SetAssocCache)
from repro.mem.dram import DRAMModel
from repro.mem.interconnect import Interconnect
from repro.mem.mshr import MSHRFile

#: L2 lookups performed per cycle.
L2_PORTS = 2
#: L2 input queue capacity (credit-based, includes in-flight requests).
L2_IN_CAPACITY = 64


class MemRequest:
    """One coalesced line request travelling through the hierarchy."""

    __slots__ = ("line", "kernel", "sm_id", "is_write", "meminst",
                 "issued_cycle", "bypass", "trace_id")

    def __init__(self, line: int, kernel: int, sm_id: int, is_write: bool,
                 meminst=None, issued_cycle: int = 0, bypass: bool = False):
        self.line = line
        self.kernel = kernel
        self.sm_id = sm_id
        self.is_write = is_write
        #: owning in-flight memory instruction (None for stores).
        self.meminst = meminst
        self.issued_cycle = issued_cycle
        #: L1D-bypassed read: no L1 lookup/allocation/MSHR; the fill is
        #: delivered straight to the owning memory instruction (§4.5).
        self.bypass = bypass
        #: Chrome-trace async-slice id while this request's lifetime is
        #: being traced (observability; None = untraced).
        self.trace_id = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return f"<MemRequest {kind} line={self.line:#x} k{self.kernel} sm{self.sm_id}>"


class MemorySubsystem:
    """Shared backend for all SMs: interconnect + L2 + DRAM.

    This class is the *oracle* machine's backend (``GPU(reference=
    True)``): ``MemRequest`` objects, object tag stores and MSHRs,
    every phase run every cycle.  The production
    machine runs :class:`PooledMemorySubsystem` below, which the tests
    hold bit-identical to this one."""

    def __init__(self, config: GPUConfig, obs=None):
        self.config = config
        #: observability collector (None = zero-cost sentinel checks).
        self._obs = obs
        # The three stores below are built through overridable
        # factories so the pooled subclass swaps in its array-backed
        # twins without double construction.
        self.l1s: List[L1DCache] = self._build_l1s(config)
        self.icnt = Interconnect(config)
        self.l2_tags = self._build_l2_tags(config)
        self.l2_mshrs = self._build_l2_mshrs(config)
        self.l2_stats = CacheStats()
        self.l2_in: Deque[MemRequest] = deque()
        self.dram = DRAMModel(config)
        self._line_flits = Interconnect.line_flits(config)
        self._l2_hit_latency = config.l2.hit_latency
        self._icnt_latency = config.icnt_latency
        # Pending events, bucketed by cycle: a dict of per-cycle lists
        # plus a min-heap of bucket cycles.  Events at the same cycle
        # run in insertion order, exactly like the classic
        # (cycle, seq) heap but with one heap op per *cycle* instead of
        # one per event.
        self._events: Dict[int, List[Tuple[str, object]]] = {}
        self._event_heap: List[int] = []
        self._rsp_queue: Deque[MemRequest] = deque()
        self._inflight_to_l2 = 0
        self._drain_rr = 0
        self.l2_head_stall_cycles = 0

    # ------------------------------------------------------------------
    # store factories (overridden by the pooled subclass)
    def _build_l1s(self, config: GPUConfig) -> List[L1DCache]:
        return [L1DCache(config.l1d) for _ in range(config.num_sms)]

    def _build_l2_tags(self, config: GPUConfig):
        return SetAssocCache(config.l2)

    def _build_l2_mshrs(self, config: GPUConfig):
        return MSHRFile(config.l2.mshrs, merge_limit=16)

    # ------------------------------------------------------------------
    # event plumbing
    def _schedule(self, cycle: int, kind: str, payload: object) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [(kind, payload)]
            heapq.heappush(self._event_heap, cycle)
        else:
            bucket.append((kind, payload))

    def _l2_in_has_credit(self) -> bool:
        return len(self.l2_in) + self._inflight_to_l2 < L2_IN_CAPACITY

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance the backend by one core cycle: every phase, every
        cycle, unconditionally."""
        self.icnt.begin_cycle()
        self._process_events(cycle)
        self.dram.tick(cycle, self._on_dram_read_done)
        self._l2_process(cycle)
        self._send_responses(cycle)
        self._drain_l1_miss_queues(cycle)

    def _process_events(self, cycle: int) -> None:
        heap = self._event_heap
        buckets = self._events
        while heap and heap[0] <= cycle:
            due = heapq.heappop(heap)
            for kind, payload in buckets.pop(due):
                if kind == "l2_arrive":
                    self._inflight_to_l2 -= 1
                    self.l2_in.append(payload)  # credit reserved at send
                elif kind == "rsp_ready":
                    self._rsp_queue.append(payload)
                elif kind == "l1_fill":
                    self._deliver_fill(payload, cycle)
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {kind!r}")

    def _on_dram_read_done(self, line_addr, done_cycle: int) -> None:
        self._schedule(done_cycle, "rsp_ready", ("dram_fill", line_addr))

    # ------------------------------------------------------------------
    # L2 controller
    def _l2_process(self, cycle: int) -> None:
        for _ in range(L2_PORTS):
            if not self.l2_in:
                return
            request = self.l2_in[0]
            if request.is_write:
                self._l2_write(request, cycle)
                self.l2_in.popleft()
                if self._obs is not None:
                    # WEWN stores carry no dependence: the lifetime
                    # ends once the write reaches the L2 boundary.
                    self._obs.mem_request_done(request, cycle)
                continue
            if not self._l2_read(request, cycle):
                self.l2_head_stall_cycles += 1
                return
            self.l2_in.popleft()

    def _l2_write(self, request: MemRequest, cycle: int) -> None:
        self.l2_stats.writes[request.kernel] += 1
        line = self.l2_tags.lookup(request.line)
        if line is not None and line.valid:
            line.dirty = True
        else:
            self.dram.enqueue_write(request.line)

    def _l2_read(self, request: MemRequest, cycle: int) -> bool:
        """Returns False when the head must stall (resource shortage)."""
        stats = self.l2_stats
        line_addr = request.line
        kernel = request.kernel
        line = self.l2_tags.probe(line_addr)
        if line is not None and line.valid:
            self.l2_tags.lookup(line_addr)  # LRU update
            stats.accesses[kernel] += 1
            stats.hits[kernel] += 1
            self._schedule(cycle + self._l2_hit_latency, "rsp_ready", request)
            if self._obs is not None:
                self._obs.mem_request_stage(request, "l2:hit", cycle)
            return True
        if line is not None and line.reserved:
            if not self.l2_mshrs.can_merge(line_addr):
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MERGE] += 1
                return False
            self.l2_mshrs.merge(line_addr, request)
            stats.accesses[kernel] += 1
            stats.misses[kernel] += 1
            if self._obs is not None:
                self._obs.mem_request_stage(request, "l2:miss_merged", cycle)
            return True
        # Primary L2 miss: MSHR + DRAM queue space + line reservation.
        if not self.l2_mshrs.can_allocate():
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_MSHR] += 1
            return False
        if not self.dram.can_accept(line_addr):
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
            return False
        ok, evicted_dirty, evicted_tag = self.l2_tags.reserve(line_addr, kernel)
        if not ok:
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_LINE] += 1
            return False
        self.l2_mshrs.allocate(line_addr, kernel, request)
        self.dram.enqueue_read(line_addr, line_addr)
        if evicted_dirty:
            # Best-effort: the writeback may be dropped if its channel
            # is saturated (bandwidth-only traffic).
            self.dram.enqueue_write(evicted_tag)
        stats.accesses[kernel] += 1
        stats.misses[kernel] += 1
        if self._obs is not None:
            self._obs.mem_request_stage(request, "l2:miss->dram", cycle)
        return True

    # ------------------------------------------------------------------
    # response path
    def _send_responses(self, cycle: int) -> None:
        rsp = self._rsp_queue
        while rsp:
            head = rsp[0]
            if isinstance(head, tuple) and head[0] == "dram_fill":
                # A DRAM fill completes the L2 line and fans out to all
                # merged waiters before any bandwidth is consumed.
                _, line_addr = head
                rsp.popleft()
                self.l2_tags.fill(line_addr)
                entry = self.l2_mshrs.release(line_addr)
                for waiter in entry.waiters:
                    rsp.append(waiter)
                continue
            if not self.icnt.try_send_response(self._line_flits):
                return
            rsp.popleft()
            self._schedule(cycle + self._icnt_latency, "l1_fill", head)

    def _deliver_fill(self, request: MemRequest, cycle: int) -> None:
        obs = self._obs
        if request.bypass:
            # Bypassed reads never allocated in the L1D: complete the
            # owning instruction directly.
            if request.meminst is not None:
                request.meminst.request_done(cycle)
            if obs is not None:
                obs.mem_request_done(request, cycle)
            return
        waiters = self.l1s[request.sm_id].fill(request.line)
        for waiter in waiters:
            if waiter.meminst is not None:
                waiter.meminst.request_done(cycle)
            if obs is not None:
                obs.mem_request_done(waiter, cycle)

    # ------------------------------------------------------------------
    # L1 miss queue drain (round-robin across SMs)
    def _drain_l1_miss_queues(self, cycle: int) -> None:
        num = len(self.l1s)
        start = self._drain_rr
        self._drain_rr = (start + 1) % num
        l1s = self.l1s
        icnt = self.icnt
        for offset in range(num):
            l1 = l1s[(start + offset) % num]
            queue = l1.miss_queue
            if not queue:
                continue
            request = queue[0]
            flits = self._line_flits if request.is_write else 1
            if len(self.l2_in) + self._inflight_to_l2 >= L2_IN_CAPACITY:
                return
            if not icnt.try_send_request(flits):
                return
            queue.popleft()
            self._inflight_to_l2 += 1
            self._schedule(cycle + self._icnt_latency, "l2_arrive", request)
            if self._obs is not None:
                self._obs.mem_request_stage(request, "icnt:to_l2", cycle)

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no request is anywhere in flight (test hook)."""
        return (not self._events and not self.l2_in and not self._rsp_queue
                and not any(l1.miss_queue for l1 in self.l1s)
                and not any(ch.queue for ch in self.dram.channels)
                and len(self.l2_mshrs) == 0
                and all(len(l1.mshrs) == 0 for l1 in self.l1s))


# ----------------------------------------------------------------------
# the pooled (allocation-free) backend
#: event kinds packed into the low two bits of an integer event word
#: (``ev = payload << 2 | kind``); payloads are pool slot ids except
#: for EV_DRAM_FILL, which carries the filled line address.
EV_L2_ARRIVE = 0
EV_RSP_SLOT = 1
EV_L1_FILL = 2
EV_DRAM_FILL = 3


class PooledMemorySubsystem(MemorySubsystem):
    """The production machine's backend: :class:`MemorySubsystem` on
    struct-of-arrays stores, ticked only when it has work.

    Requests live in a :class:`~repro.mem.pool.RequestPool` and travel
    as integer slot ids; the tag stores and MSHR files are the array
    twins from :mod:`repro.mem.pool` (the DRAM model is shared with the
    oracle).  Scheduled events pack ``(kind, payload)`` into one int
    (see the ``EV_*`` constants), and response-queue entries are slot
    ids with DRAM fills encoded as ``-1 - line_addr``.

    Every override below is its base-class method with the object
    dereferences replaced by pool-array reads *in the same order*, and
    ``tick`` skips exactly the cycles the base class would spend doing
    nothing (see :meth:`tick`) — the bit-identity proof obligation of
    docs/PERF.md, swept over the scheme space against the oracle and
    scripted in tests/test_subsystem.py.  Obs hooks receive
    :class:`~repro.mem.pool.PoolSlotView` facades, so the sentinel
    interface is unchanged.
    """

    def __init__(self, config: GPUConfig, obs=None):
        # The pool and the shared miss-queue counter must exist before
        # the base constructor calls the _build_* factories.
        from repro.mem.pool import RequestPool
        self.pool = RequestPool()
        #: one-cell count of queued L1 miss entries across all SMs:
        #: an O(1) idle check instead of a 16-queue scan.
        self._mq_pending = [0]
        super().__init__(config, obs=obs)
        #: idle cycles whose token refills are still owed to the icnt.
        self._skipped_refills = 0

    # -- store factories ------------------------------------------------
    def _build_l1s(self, config: GPUConfig) -> List[PooledL1DCache]:
        return [PooledL1DCache(config.l1d, self.pool, self._mq_pending)
                for _ in range(config.num_sms)]

    def _build_l2_tags(self, config: GPUConfig):
        from repro.mem.pool import ArrayTagStore
        return ArrayTagStore(config.l2)

    def _build_l2_mshrs(self, config: GPUConfig):
        from repro.mem.pool import ArrayMSHRFile
        return ArrayMSHRFile(config.l2.mshrs, merge_limit=16)

    # -- event plumbing -------------------------------------------------
    def _schedule_ev(self, cycle: int, ev: int) -> None:
        """Int-event twin of :meth:`MemorySubsystem._schedule` (same
        bucket structure)."""
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [ev]
            heapq.heappush(self._event_heap, cycle)
        else:
            bucket.append(ev)

    def _process_events(self, cycle: int) -> None:
        heap = self._event_heap
        buckets = self._events
        l2_in = self.l2_in
        rsp = self._rsp_queue
        while heap and heap[0] <= cycle:
            due = heapq.heappop(heap)
            for ev in buckets.pop(due):
                kind = ev & 3
                payload = ev >> 2
                if kind == EV_L2_ARRIVE:
                    self._inflight_to_l2 -= 1
                    l2_in.append(payload)  # credit reserved at send
                elif kind == EV_RSP_SLOT:
                    rsp.append(payload)
                elif kind == EV_L1_FILL:
                    self._deliver_fill(payload, cycle)
                else:  # EV_DRAM_FILL
                    rsp.append(-1 - payload)

    def _on_dram_read_done(self, line_addr, done_cycle: int) -> None:
        self._schedule_ev(done_cycle, (line_addr << 2) | EV_DRAM_FILL)

    # -- per-cycle tick (O(1) idle check via the miss-queue counter) ----
    def tick(self, cycle: int) -> None:
        """:meth:`MemorySubsystem.tick` with every phase guarded by its
        queue state, and quiet cycles skipped entirely — including
        *latency-shadow* cycles where events exist but none is due yet.
        A skipped cycle's only observable work would have been the
        interconnect token refill (batched into the next active cycle
        via an exactly-equivalent catch-up call) and the drain
        round-robin pointer (advanced in place)."""
        heap = self._event_heap
        events_due = bool(heap) and heap[0] <= cycle
        if (not events_due and not self.l2_in and not self._rsp_queue
                and not self.dram.queued and not self._mq_pending[0]):
            self._skipped_refills += 1
            self._drain_rr = (self._drain_rr + 1) % len(self.l1s)
            return
        self.icnt.begin_cycle(1 + self._skipped_refills)
        self._skipped_refills = 0
        if events_due:
            self._process_events(cycle)
        if self.dram.queued:
            self.dram.tick(cycle, self._on_dram_read_done)
        if self.l2_in:
            self._l2_process(cycle)
        if self._rsp_queue:
            self._send_responses(cycle)
        if self._mq_pending[0]:
            self._drain_l1_miss_queues(cycle)
        else:
            # The drain's round-robin pointer advances every cycle even
            # when all queues are empty (as the base drain does).
            self._drain_rr = (self._drain_rr + 1) % len(self.l1s)

    # -- L2 controller --------------------------------------------------
    def _l2_process(self, cycle: int) -> None:
        pool = self.pool
        l2_in = self.l2_in
        is_write = pool.is_write
        for _ in range(L2_PORTS):
            if not l2_in:
                return
            slot = l2_in[0]
            if is_write[slot]:
                self._l2_write(slot, cycle)
                l2_in.popleft()
                if self._obs is not None:
                    # WEWN stores carry no dependence: the lifetime
                    # ends once the write reaches the L2 boundary.
                    self._obs.mem_request_done(pool.view(slot), cycle)
                pool.free(slot)
                continue
            if not self._l2_read(slot, cycle):
                self.l2_head_stall_cycles += 1
                return
            l2_in.popleft()

    def _l2_write(self, slot: int, cycle: int) -> None:
        pool = self.pool
        line_addr = pool.line[slot]
        self.l2_stats.writes[pool.kernel[slot]] += 1
        tags = self.l2_tags
        way = tags.find(line_addr)
        if way >= 0 and tags.valid[way]:
            tags.touch(way)  # the lookup's LRU bump (valid hit only)
            tags.dirty[way] = True
        else:
            self.dram.enqueue_write(line_addr)

    def _l2_read(self, slot: int, cycle: int) -> bool:
        """Returns False when the head must stall (resource shortage)."""
        stats = self.l2_stats
        pool = self.pool
        line_addr = pool.line[slot]
        kernel = pool.kernel[slot]
        tags = self.l2_tags
        way = tags.find(line_addr)
        if way >= 0 and tags.valid[way]:
            tags.touch(way)  # LRU update
            stats.accesses[kernel] += 1
            stats.hits[kernel] += 1
            self._schedule_ev(cycle + self._l2_hit_latency,
                              (slot << 2) | EV_RSP_SLOT)
            if self._obs is not None:
                self._obs.mem_request_stage(pool.view(slot), "l2:hit", cycle)
            return True
        if way >= 0:  # reserved: secondary miss
            if not self.l2_mshrs.can_merge(line_addr):
                stats.rsfails[kernel] += 1
                stats.rsfail_reasons[AccessResult.RSFAIL_MERGE] += 1
                return False
            self.l2_mshrs.merge(line_addr, slot)
            stats.accesses[kernel] += 1
            stats.misses[kernel] += 1
            if self._obs is not None:
                self._obs.mem_request_stage(pool.view(slot),
                                            "l2:miss_merged", cycle)
            return True
        # Primary L2 miss: MSHR + DRAM queue space + line reservation.
        if not self.l2_mshrs.can_allocate():
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_MSHR] += 1
            return False
        if not self.dram.can_accept(line_addr):
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_MISSQ] += 1
            return False
        ok, evicted_dirty, evicted_tag = tags.reserve(line_addr, kernel)
        if not ok:
            stats.rsfails[kernel] += 1
            stats.rsfail_reasons[AccessResult.RSFAIL_LINE] += 1
            return False
        self.l2_mshrs.allocate(line_addr, kernel, slot)
        self.dram.enqueue_read(line_addr, line_addr)
        if evicted_dirty:
            self.dram.enqueue_write(evicted_tag)
        stats.accesses[kernel] += 1
        stats.misses[kernel] += 1
        if self._obs is not None:
            self._obs.mem_request_stage(pool.view(slot), "l2:miss->dram",
                                        cycle)
        return True

    # -- response path --------------------------------------------------
    def _send_responses(self, cycle: int) -> None:
        rsp = self._rsp_queue
        icnt = self.icnt
        line_flits = self._line_flits
        lat = self._icnt_latency
        while rsp:
            head = rsp[0]
            if head < 0:
                # A DRAM fill completes the L2 line and fans out to all
                # merged waiters before any bandwidth is consumed.
                line_addr = -1 - head
                rsp.popleft()
                self.l2_tags.fill(line_addr)
                for waiter in self.l2_mshrs.release(line_addr):
                    rsp.append(waiter)
                continue
            if not icnt.try_send_response(line_flits):
                return
            rsp.popleft()
            self._schedule_ev(cycle + lat, (head << 2) | EV_L1_FILL)

    def _deliver_fill(self, slot: int, cycle: int) -> None:
        obs = self._obs
        pool = self.pool
        if pool.bypass[slot]:
            # Bypassed reads never allocated in the L1D: complete the
            # owning instruction directly.
            meminst = pool.meminst[slot]
            if meminst is not None:
                meminst.request_done(cycle)
            if obs is not None:
                obs.mem_request_done(pool.view(slot), cycle)
            pool.free(slot)
            return
        waiters = self.l1s[pool.sm_id[slot]].fill(pool.line[slot])
        meminsts = pool.meminst
        for waiter in waiters:
            meminst = meminsts[waiter]
            if meminst is not None:
                meminst.request_done(cycle)
            if obs is not None:
                obs.mem_request_done(pool.view(waiter), cycle)
            pool.free(waiter)

    # -- L1 miss queue drain (round-robin across SMs) -------------------
    def _drain_l1_miss_queues(self, cycle: int) -> None:
        num = len(self.l1s)
        start = self._drain_rr
        self._drain_rr = (start + 1) % num
        l1s = self.l1s
        icnt = self.icnt
        pool = self.pool
        pending = self._mq_pending
        is_write = pool.is_write
        line_flits = self._line_flits
        lat = self._icnt_latency
        for offset in range(num):
            l1 = l1s[(start + offset) % num]
            queue = l1.miss_queue
            if not queue:
                continue
            slot = queue[0]
            flits = line_flits if is_write[slot] else 1
            if len(self.l2_in) + self._inflight_to_l2 >= L2_IN_CAPACITY:
                return
            if not icnt.try_send_request(flits):
                return
            queue.popleft()
            pending[0] -= 1
            l1.version[RELEASE_DRAIN] += 1
            hook = l1.on_release[RELEASE_DRAIN]
            if hook is not None:
                hook()
            self._inflight_to_l2 += 1
            self._schedule_ev(cycle + lat, (slot << 2) | EV_L2_ARRIVE)
            if self._obs is not None:
                self._obs.mem_request_stage(pool.view(slot), "icnt:to_l2",
                                            cycle)
