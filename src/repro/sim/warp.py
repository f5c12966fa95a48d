"""Warps, thread blocks, and in-flight memory instructions.

A warp executes its :class:`~repro.workloads.kernel.ReplayStream` one
instruction per issue.  Compute instructions are fully pipelined
(the warp is ready again next cycle; SFU ops have a longer initiation
interval).  A load blocks the warp until every coalesced request of
that instruction has returned — the standard GTO-era simplification
that makes memory latency the thing warp switching must hide.

:class:`MemInst` is the unit the paper's MIL scheme counts: an issued
memory instruction stays "in flight" from LSU issue until its last
request completes (loads) or until it is fully expanded (stores).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.workloads.kernel import KernelProfile, ReplayStream


class MemInst:
    """One issued (post-coalescing) memory instruction in flight.

    ``lines`` are global line addresses as the stream handed them out:
    a ``range`` when the instruction's key expands inline, the
    footprint's list when its lines wrap or the oracle generated the
    warp at launch."""

    __slots__ = ("warp", "kernel", "lines", "next_idx", "pending",
                 "is_store", "on_complete", "_completed")

    def __init__(self, warp: "Warp", lines: Sequence[int], is_store: bool,
                 on_complete: Callable[["MemInst", int], None]):
        self.warp = warp
        self.kernel = warp.kernel_slot
        self.lines = lines
        self.next_idx = 0
        self.pending = 0
        self.is_store = is_store
        self.on_complete = on_complete
        self._completed = False

    @property
    def fully_expanded(self) -> bool:
        return self.next_idx >= len(self.lines)

    def note_request_sent(self, waits_for_data: bool) -> None:
        self.next_idx += 1
        if waits_for_data:
            self.pending += 1

    def request_done(self, cycle: int) -> None:
        """Callback from the memory subsystem when a fill returns."""
        self.pending -= 1
        if self.pending < 0:  # pragma: no cover - defensive
            raise RuntimeError("memory instruction over-completed")
        self.maybe_complete(cycle)

    def maybe_complete(self, cycle: int) -> None:
        if (self._completed or self.pending
                or self.next_idx < len(self.lines)):
            return
        self._completed = True
        self.on_complete(self, cycle)


class Warp:
    """One warp's execution state inside an SM.

    ``mlp`` bounds the warp's outstanding loads (its memory-level
    parallelism): a warp with ``mlp`` loads in flight stalls on the
    data dependence until one returns.  Memory-intensive kernels have
    high MLP (back-to-back independent loads — the reason they swamp
    the MSHRs in the paper), compute-intensive ones low MLP.
    """

    __slots__ = ("warp_id", "kernel_slot", "tb", "stream", "ready_at",
                 "outstanding_loads", "mlp", "age", "sched")

    def __init__(self, warp_id: int, kernel_slot: int, tb: "ThreadBlock",
                 stream: ReplayStream, age: int, mlp: int = 2):
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.warp_id = warp_id
        self.kernel_slot = kernel_slot
        self.tb = tb
        self.stream = stream
        self.ready_at = 0
        self.outstanding_loads = 0
        self.mlp = mlp
        #: monotone launch sequence used for "oldest" in GTO.
        self.age = age
        #: owning scheduler, set by WarpScheduler.add_warp — lets the SM
        #: retire a warp in O(1) instead of scanning every scheduler.
        self.sched = None

    @property
    def done(self) -> bool:
        return self.stream.done

    @property
    def retired(self) -> bool:
        """Stream drained and no load still in flight."""
        return self.stream.done and self.outstanding_loads == 0

    def issuable(self, cycle: int) -> bool:
        return (not self.stream.done
                and self.outstanding_loads < self.mlp
                and self.ready_at <= cycle)

    def note_load_issued(self, cycle: int) -> None:
        self.outstanding_loads += 1
        self.ready_at = cycle + 1

    def note_load_done(self, cycle: int) -> None:
        self.outstanding_loads -= 1
        if self.outstanding_loads < 0:  # pragma: no cover - defensive
            raise RuntimeError("warp load count underflow")
        if self.ready_at <= cycle:
            self.ready_at = cycle + 1


class ThreadBlock:
    """A resident thread block: a set of warps plus static resources."""

    __slots__ = ("tb_id", "kernel_slot", "profile", "warps", "live_warps")

    def __init__(self, tb_id: int, kernel_slot: int, profile: KernelProfile):
        self.tb_id = tb_id
        self.kernel_slot = kernel_slot
        self.profile = profile
        self.warps: List[Warp] = []
        self.live_warps = 0

    @property
    def done(self) -> bool:
        return self.live_warps == 0

    def note_warp_done(self) -> None:
        self.live_warps -= 1
        if self.live_warps < 0:  # pragma: no cover - defensive
            raise RuntimeError("thread block over-completed")
