"""The memory backend: L1 miss queues → interconnect → L2 → DRAM → back.

This module glues the per-SM L1Ds to the shared L2 and DRAM, carrying
:class:`MemRequest` objects through a time-ordered event heap.  The key
behaviour the paper depends on is **backpressure**: when the L2 input
queue, L2 MSHRs or DRAM queues saturate, L1 miss queues stop draining,
L1 MSHRs stay occupied, and the SM-side memory pipeline starts taking
reservation failures — which is exactly the congestion signal DMIL
throttles on (§3.3) and why enlarging one resource merely moves the
bottleneck (§4.3).

One L2 tag store, ``L2_PORTS`` lookups a cycle, xor-indexed, LRU,
allocating on a read miss (Table 1).  A write marks a hit dirty and
goes to DRAM on a miss without allocating (``_l2_write``), not full
WBWA: writes carry no dependences here, only bandwidth, so this does
not affect any studied mechanism (see DESIGN.md).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import GPUConfig
from repro.mem.cache import (RELEASE_DRAIN, AccessResult, CacheStats,
                             L1DCache, SetAssocCache)
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

    Both machines (``GPU(reference=...)``) run this backend, every
    phase every cycle; they differ only in their SMs.  A miss-queue
    drain bumps the L1's ``RELEASE_DRAIN`` entry and calls its hook
    (``L1DCache.on_release``), which only the production machine arms."""

    def __init__(self, config: GPUConfig, obs=None):
        self.config = config
        #: observability collector (None = zero-cost sentinel checks).
        self._obs = obs
        self.l1s: List[L1DCache] = [L1DCache(config.l1d)
                                    for _ in range(config.num_sms)]
        self.icnt = Interconnect(config)
        self.l2_tags = SetAssocCache(config.l2)
        self.l2_mshrs = MSHRFile(config.l2.mshrs, merge_limit=16)
        self.l2_stats = CacheStats()
        self.l2_in: Deque[MemRequest] = deque()
        self.dram = DRAMModel(config)
        self._line_flits = Interconnect.line_flits(config)
        self._l2_hit_latency = config.l2_hit_latency
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
    # event plumbing
    def _schedule(self, cycle: int, kind: str, payload: object) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [(kind, payload)]
            heapq.heappush(self._event_heap, cycle)
        else:
            bucket.append((kind, payload))

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
            self.l2_tags.touch(line)
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
            l1.version[RELEASE_DRAIN] += 1
            hook = l1.on_release[RELEASE_DRAIN]
            if hook is not None:
                hook()
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

