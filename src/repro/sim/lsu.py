"""The Load/Store Unit: the SM's memory pipeline front end.

The LSU holds a short in-order queue of issued memory instructions and
expands the head instruction into its coalesced line requests, one L1D
access per cycle.  When the L1D reports a reservation failure the head
request replays next cycle and the whole pipeline stalls behind it —
including requests from *other* kernels, which is the §2.5 interference
this paper attacks (and why §4.5 notes that partitioning miss
resources alone cannot help: the pipeline is in-order).

Every successful request and every reservation failure is reported to
the scheme bundle (MILG counters, QBMI estimators, UCP shadow tags).

One class, two ticks, one per machine (see ``repro.sim.engine.GPU``),
both over ``MemRequest`` objects and the same ``L1DCache``:
:meth:`LoadStoreUnit.tick` is the oracle's plain specification — one
L1D lookup per replayed cycle — and
:meth:`LoadStoreUnit.tick_memoised` is the production tick, which
memoises a stalled head's verdict — keyed to the class of
L1 release that can change it: a miss-queue drain for ``rsfail_missq``,
a fill for the rest — defers the replays' stats into one batch and lets
the SM sleep through them, woken by that class alone — observed or
not.  The owning SM binds one of them for the run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.mem.cache import RSFAIL_RELEASE, AccessResult, L1DCache
from repro.mem.subsystem import MemRequest
from repro.sim.warp import MemInst

#: instructions the LSU queue can hold (issue stalls when full).
LSU_QUEUE_DEPTH = 8

_MISSES = (AccessResult.MISS, AccessResult.MISS_MERGED)
_RSFAILS = AccessResult.RSFAILS


class LoadStoreUnit:
    """Per-SM memory pipeline."""

    __slots__ = ("sm_id", "l1", "queue_depth", "width", "queue",
                 "_current_request", "_stall_memo", "_stall_owed",
                 "stall_cycles", "busy_cycles",
                 "bypass_by_kernel", "_obs", "_inline_stats",
                 "_rsfail_hook", "replays_batched", "insts_through")

    def __init__(self, sm_id: int, l1: L1DCache, queue_depth: int = LSU_QUEUE_DEPTH,
                 width: int = 2):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.sm_id = sm_id
        self.l1 = l1
        self.queue_depth = queue_depth
        self.width = width
        self.queue: Deque[MemInst] = deque()
        #: the head instruction's ``MemRequest`` in flight to the L1D.
        self._current_request = None
        #: production tick only: (request, l1.version[release],
        #: l1.tags.partition, result, kernel, release) of the last
        #: reservation failure, where ``release`` is the class of L1
        #: release the verdict can be moved by
        #: (:data:`~repro.mem.cache.RSFAIL_RELEASE`: a miss-queue drain
        #: for ``rsfail_missq``, a fill for the other three).  While the
        #: head request (by identity), that class's version, and the
        #: partition object are all unchanged, a replay must fail
        #: identically — every RSFAIL path in ``L1DCache.access`` is
        #: pure apart from its two stats bumps, and a release of the
        #: other class leaves every test on the path to this verdict as
        #: it was (docs/PERF.md section 3) — so the lookup can be
        #: skipped and only the stats replayed.  The oracle's ``tick``
        #: is the plain replay this is validated against.
        self._stall_memo = None
        #: replayed-stall cycles whose stats bumps are deferred (memo
        #: valid): the whole stretch is paid in one batch when the
        #: stall breaks (``_flush_stall_debt``) or the engine settles
        #: (result collection, a phase-sample boundary).  Observable
        #: state is identical to per-cycle replay because nothing reads
        #: the counters — or the limiter's additive rsfail count, see
        #: ``_rsfail_hook``, or the observed LSU stall taxonomy — while
        #: the debt is outstanding.  A stall-sleeping SM adds its slept
        #: cycles here in one step on wake-up.
        self._stall_owed = 0
        #: self-observability: replays settled by ``_flush_stall_debt``
        #: (each skipped an L1 lookup); one add per flush.
        self.replays_batched = 0
        #: self-observability: memory instructions the owning SM
        #: finished at issue (all-hit loads, never queued here).
        self.insts_through = 0
        self.stall_cycles = 0
        self.busy_cycles = 0
        #: kernel -> L1D-bypass verdict, filled in by the owning SM
        #: (the scheme's bypass set is fixed for the whole run).  When
        #: None, fall back to asking the SM's bundle per request.
        self.bypass_by_kernel = None
        #: observability collector (set by the owning SM; None = off).
        self._obs = None
        #: production-tick per-run constants resolved by the owning SM:
        #: the kernel-stats dict when the per-request SM hook reduces
        #: to one stats bump (else None), and the limiter's batchable
        #: ``note_rsfail(kernel, count)`` when it is not the base-class
        #: no-op (else None).  MILG's rsfail count is purely additive
        #: and read only inside ``note_request``, which this LSU cannot
        #: reach before a failed memo check has flushed the debt.
        self._inline_stats = None
        self._rsfail_hook = None

    def can_accept(self) -> bool:
        return len(self.queue) < self.queue_depth

    def _flush_stall_debt(self) -> None:
        """Settle deferred stall replays: pay the owed stats bumps,
        stall cycles and (observed runs) LSU stall taxonomy entries for
        the memoised verdict in one batch.  Must run before anything
        reads ``stall_cycles``, the L1 stats or the stall table
        (``GPU.settle`` does) and whenever the memo's premise breaks."""
        owed = self._stall_owed
        if not owed:
            return
        self._stall_owed = 0
        memo = self._stall_memo
        result = memo[3]
        kernel = memo[4]
        stats = self.l1.stats
        stats.rsfails[kernel] += owed
        stats.rsfail_reasons[result] += owed
        self.stall_cycles += owed
        self.replays_batched += owed
        hook = self._rsfail_hook
        if hook is not None:
            hook(kernel, owed)
        obs = self._obs
        if obs is not None:
            obs.lsu_rsfail(self.sm_id, kernel, result, owed)

    def arm_release(self, hook) -> None:
        """Have the L1 call ``hook`` at the next release of the class
        the memoised verdict waits on — and at no release of the other
        class, which cannot move it (``None`` disarms).  The owning SM
        arms its wake-up when it goes into a memory-stall sleep."""
        on_release = self.l1.on_release
        on_release[0] = on_release[1] = None
        if hook is not None:
            on_release[self._stall_memo[5]] = hook

    def enqueue(self, inst: MemInst) -> None:
        if not self.can_accept():
            raise RuntimeError("LSU queue full")
        self.queue.append(inst)

    def _new_head_request(self, inst: MemInst, cycle: int, sm) -> MemRequest:
        """The request for the head instruction's next line, held in
        ``_current_request`` until the L1 accepts it."""
        is_store = inst.is_store
        if is_store:
            bypass = False
        elif self.bypass_by_kernel is not None:
            bypass = self.bypass_by_kernel[inst.kernel]
        else:
            bypass = sm.bundle.bypasses_l1d(inst.kernel)
        request = MemRequest(inst.lines[inst.next_idx], inst.kernel,
                             self.sm_id, is_store,
                             None if is_store else inst, cycle, bypass)
        self._current_request = request
        if self._obs is not None:
            self._obs.mem_request_created(request, cycle)
        return request

    def tick(self, cycle: int, sm) -> None:
        """Process up to ``width`` L1D requests this cycle, in order.

        A reservation failure stalls the pipeline for the rest of the
        cycle (one failure counted per stalled cycle, as a hardware
        replay would) and the head request is looked up again next
        cycle.  This is the oracle's tick: the specification
        :meth:`tick_memoised` is held bit-identical to."""
        queue = self.queue
        if not queue:
            return
        l1_access = self.l1.access
        obs = self._obs
        busy = False
        for _ in range(self.width):
            if not queue:
                break
            inst = queue[0]
            request = self._current_request
            if request is None:
                request = self._new_head_request(inst, cycle, sm)

            result = l1_access(request, cycle)
            if result in _RSFAILS:
                # Memory pipeline stall: replay the request next cycle.
                self.stall_cycles += 1
                sm.on_rsfail(request.kernel, cycle)
                if obs is not None:
                    obs.lsu_rsfail(self.sm_id, request.kernel, result)
                return

            busy = True
            self._current_request = None
            # Inlined MemInst.note_request_sent + maybe_complete: one
            # request accepted, and the instruction leaves the queue
            # (completing unless fills are still owed) once its last
            # line went out.
            next_idx = inst.next_idx + 1
            inst.next_idx = next_idx
            if not inst.is_store and result in _MISSES:
                inst.pending += 1
            sm.on_request_issued(request, result, cycle)
            if obs is not None:
                obs.mem_request_l1(request, result, cycle)
            if next_idx >= len(inst.lines):
                queue.popleft()
                if not (inst._completed or inst.pending):
                    inst._completed = True
                    inst.on_complete(inst, cycle)
        if busy:
            self.busy_cycles += 1

    def tick_memoised(self, cycle: int, sm) -> bool:
        """:meth:`tick` on the production machine.  Control flow and
        stats order mirror :meth:`tick` exactly; on top, a stalled
        head's verdict is memoised (``_stall_memo``) and the replays'
        stats bumps are deferred into ``_stall_owed`` (bit-identity,
        observed reports included: docs/PERF.md §5).

        Returns True when the cycle ends with the head stalled on a
        memoised verdict: until the L1 release class it waits on moves
        its ``l1.version`` entry, every further tick is exactly
        ``_stall_owed += 1`` — the state the owning SM may sleep
        through (see ``SleepingSM.tick``).  ``_stall_owed``
        is non-zero then iff this tick already was such a replay (a
        lookup that failed this very cycle flushed the debt first)."""
        queue = self.queue
        if not queue:
            return False
        l1 = self.l1
        memo = self._stall_memo
        if memo is not None:
            # Stalled-head fast-out: in a long memory-pipeline stall
            # this is the per-cycle common case, so the deferral check
            # runs before any of the loop bindings below.
            if (memo[0] is self._current_request
                    and memo[1] == l1.version[memo[5]]
                    and memo[2] is l1.tags.partition):
                self._stall_owed += 1
                return True
        l1_access = l1.access
        rsfails = _RSFAILS
        obs = self._obs
        # With every scheme hook inert, the SM's on_request_issued
        # reduces to one stats bump — inlined here (resolved once per
        # run by the owning SM).
        kernel_stats = self._inline_stats
        busy = False
        for _ in range(self.width):
            if not queue:
                break
            inst = queue[0]
            request = self._current_request
            if request is None:
                request = self._new_head_request(inst, cycle, sm)
            kernel = request.kernel

            memo = self._stall_memo
            if memo is not None:
                if (memo[0] is request
                        and memo[1] == l1.version[memo[5]]
                        and memo[2] is l1.tags.partition):
                    # Nothing a failing lookup depends on changed since
                    # the last replay: it fails identically, so skip
                    # the cache walk and defer the stats bumps, settled
                    # when the stall breaks.
                    self._stall_owed += 1
                    return True
                if self._stall_owed:
                    self._flush_stall_debt()
            result = l1_access(request, cycle)
            if result in rsfails:
                # Memory pipeline stall: replay the request next cycle.
                release = RSFAIL_RELEASE[result]
                self._stall_memo = (request, l1.version[release],
                                    l1.tags.partition, result, kernel,
                                    release)
                self.stall_cycles += 1
                sm.on_rsfail(kernel, cycle)
                if obs is not None:
                    obs.lsu_rsfail(self.sm_id, kernel, result)
                return True

            busy = True
            self._stall_memo = None
            self._current_request = None
            next_idx = inst.next_idx + 1
            inst.next_idx = next_idx
            if not inst.is_store and result in _MISSES:
                inst.pending += 1
            if kernel_stats is not None:
                kernel_stats[kernel].mem_requests += 1
            else:
                sm.on_request_issued(request, result, cycle)
            if obs is not None:
                obs.mem_request_l1(request, result, cycle)
            if next_idx >= len(inst.lines):
                queue.popleft()
                if not (inst._completed or inst.pending):
                    inst._completed = True
                    inst.on_complete(inst, cycle)
        if busy:
            self.busy_cycles += 1
        return False
