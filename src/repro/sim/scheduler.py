"""Warp schedulers: Greedy-Then-Oldest and Loose Round-Robin.

Each SM has ``schedulers_per_sm`` schedulers, each owning a disjoint
subset of the SM's warps.  Per cycle a scheduler selects at most one
issuable warp:

* **GTO** (Table 1 default): keep issuing from the most recently
  issued warp; when it cannot issue, fall back to the oldest issuable
  warp (launch order).
* **LRR** (§4.3 sensitivity): rotate a start pointer and take the
  first issuable warp after it.

Selection returns both the scheduler's primary pick and — when the
primary pick is a memory instruction — a *fallback* compute warp, so
the SM can still issue useful work when the LSU arbiter awards the
single memory-issue slot to another scheduler.

Hot-loop design (the selection loop dominates whole-simulation cost):

* the owned-warp list is kept sorted by age at insertion time, so GTO
  never sorts inside :meth:`select`; the GTO priority order (greedy
  warp first, then oldest-first) is cached and only rebuilt when
  membership or the greedy warp changes;
* LRR rotation reuses one scratch buffer instead of slicing two new
  lists per cycle;
* a *next-wake* hint skips selection outright while every owned warp
  is provably unissuable (blocked on latency): when a scan finds no
  warp with ``ready_at <= cycle``, the scheduler sleeps until the
  earliest ``ready_at``; warps blocked on MLP (a full complement of
  outstanding loads) wake the scheduler through :meth:`wake_at` when a
  load returns.  The hint only ever skips cycles whose selection would
  provably return ``None``, so simulated behaviour is bit-identical to
  :meth:`WarpScheduler.select_reference`, the plain scan the oracle's
  SM calls every cycle;
* an *issue-stall memo* does the same for the paper's two refusals:
  when a scan finds ready warps and every one holds a memory
  instruction it was told not to issue — the LSU queue is full, or MIL
  caps the warp's kernel — the scheduler records the refused kernels
  (``_mem_blocked``), and the SM skips selection while none of them is
  open again (docs/PERF.md section 3).
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Callable, List, Optional

from repro.sim.warp import Warp
from repro.workloads.kernel import OP_ALU, OP_SFU

#: sentinel wake-up cycle for "no warp can wake without an event".
NEVER = (1 << 62)


class Selection:
    """Outcome of one scheduler's selection phase."""

    __slots__ = ("warp", "op", "fallback", "fallback_op", "is_mem")

    def __init__(self, warp: Warp, op: str,
                 fallback: Optional[Warp] = None,
                 fallback_op: Optional[str] = None):
        self.warp = warp
        self.op = op
        self.fallback = fallback
        self.fallback_op = fallback_op
        self.is_mem = not (op is OP_ALU or op is OP_SFU)


class WarpScheduler:
    """One warp scheduler and the warps it owns."""

    __slots__ = ("sched_id", "policy", "warps", "sm", "_greedy", "_lrr_pos",
                 "_is_lrr", "_next_wake", "_gto_order",
                 "_gto_dirty", "_rot_buf", "_sel", "_auto_warp",
                 "_auto_left", "_auto_stats", "_mem_blocked", "_mem_wake",
                 "_scan")

    def __init__(self, sched_id: int, policy: str):
        if policy not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {policy!r}")
        self.sched_id = sched_id
        self.policy = policy
        self.warps: List[Warp] = []
        #: owning SM (set by the SM; None for standalone schedulers).
        #: Wake events propagate here so a sleeping SM resumes ticking.
        self.sm = None
        self._greedy: Optional[Warp] = None
        self._lrr_pos = 0
        self._is_lrr = policy == "lrr"
        #: earliest cycle at which select() could possibly pick a warp;
        #: 0 forces a scan (used whenever membership changes).
        self._next_wake = 0
        self._gto_order: List[Warp] = []
        self._gto_dirty = True
        self._rot_buf: List[Warp] = []
        #: reusable Selection for select(): one live selection per
        #: scheduler per cycle, consumed by the SM before the next call.
        self._sel: Selection = Selection.__new__(Selection)
        #: issue autopilot (production SM, GTO only): after a compute issue
        #: the issuing warp is the greedy warp, and while its stream
        #: head is a run of ALU ops every per-cycle selection provably
        #: re-picks it (greedy is priority[0]; ALU has no port limit;
        #: ready_at advances by 1; outstanding loads only decrease).
        #: The SM burns the run down without calling select() at all.
        self._auto_warp: Optional[Warp] = None
        self._auto_left = 0
        #: the burst warp's KernelStats, cached at arming so each burst
        #: pop skips the per-kernel stats lookup.
        self._auto_stats = None
        #: scan list (select() under GTO): the age-sorted subset of ``warps``
        #: that selection could possibly pick — everything except warps
        #: blocked on the MLP cap (a full complement of outstanding
        #: loads) or drained (stream exhausted, awaiting retirement).
        #: Those two states change only at explicit events (a load
        #: issue, a load return, a stream-emptying pop), so the SM's
        #: issue/completion paths maintain membership exactly via
        #: :meth:`scan_block`/:meth:`scan_unblock` and the hot scan
        #: skips permanently-ineligible warps without touching them.
        #: The reference scan (:meth:`select_reference`) and LRR keep
        #: iterating ``warps`` — the list this one is proven against.
        self._scan: List[Warp] = []
        #: issue-stall memo (select() on ungated runs): the bit set of
        #: kernel slots whose memory instructions the last scan refused
        #: — non-zero iff that scan found latency-ready warps and every
        #: one of them holds a memory instruction of a kernel in the
        #: set (the LSU was full, which closes every kernel, or MIL
        #: capped each of them: the paper's stall and the paper's
        #: mechanism, one rule).  While none of those kernels is open
        #: again, select() provably returns None — until ``_mem_wake``
        #: (the earliest ready_at of a latency-blocked warp, whose head
        #: may be compute or of an open kernel) or an invalidating
        #: event: an issue (note_issued), a load return (wake_at), or a
        #: membership change.  The SM tests the set against its per-tick
        #: open-kernel mask and skips select() outright while they are
        #: disjoint.  0 = no memo.
        self._mem_blocked = 0
        self._mem_wake = 0

    # ------------------------------------------------------------------
    def add_warp(self, warp: Warp) -> None:
        # Keep the list age-sorted (launch order); the SM hands warps
        # out with monotonically increasing ages, so this is an append
        # in practice, but insort keeps manual test setups correct too.
        insort(self.warps, warp, key=_age_of)
        # A fresh warp has no outstanding loads and a non-empty stream:
        # always scannable.
        insort(self._scan, warp, key=_age_of)
        warp.sched = self
        self._gto_dirty = True
        self._next_wake = 0
        self._mem_blocked = 0
        sm = self.sm
        if sm is not None:
            sm._sleep_until = 0

    def remove_warp(self, warp: Warp) -> None:
        self.warps.remove(warp)
        scan = self._scan
        if warp in scan:
            scan.remove(warp)
        warp.sched = None
        self._mem_blocked = 0
        if self._greedy is warp:
            self._greedy = None
        if self._auto_warp is warp:
            # Cannot fire mid-burst in the simulator (a warp with ALU
            # ops left never retires), but manual test setups may.
            self._auto_warp = None
            self._auto_left = 0
        self._gto_dirty = True

    def scan_block(self, warp: Warp) -> None:
        """``warp`` became provably unscannable (MLP-capped or drained):
        drop it from the scan list until :meth:`scan_unblock`.  The
        caller guarantees the warp was scannable (it just issued).

        A clean GTO order is patched in place rather than marked dirty:
        the order invariant (the greedy warp first when present, the
        rest age-sorted) survives removing any one element, so a full
        rebuild on the next select() would produce exactly this list."""
        self._scan.remove(warp)
        if self._gto_dirty:
            return
        self._gto_order.remove(warp)

    def scan_unblock(self, warp: Warp) -> None:
        """A load return dropped ``warp`` below its MLP cap: restore it
        to the scan list (the caller guarantees it was blocked and its
        stream has work left).  Like :meth:`scan_block`, a clean GTO
        order is patched in place: the returning warp goes to the front
        if it is the greedy warp (rebuilds always front the greedy warp
        regardless of age), else into the age-sorted tail."""
        insort(self._scan, warp, key=_age_of)
        if self._gto_dirty:
            return
        order = self._gto_order
        if warp is self._greedy:
            order.insert(0, warp)
            return
        lo = 1 if (order and order[0] is self._greedy) else 0
        hi = len(order)
        age = warp.age
        while lo < hi:
            mid = (lo + hi) >> 1
            if order[mid].age < age:
                lo = mid + 1
            else:
                hi = mid
        order.insert(lo, warp)

    def note_issued(self, warp: Warp) -> None:
        """Record the issuing warp (updates GTO greediness).

        Any issue invalidates the issue-stall memo: the issued
        instruction changes its warp's head op, so a later scan must
        re-derive the all-heads-are-refused-memory verdict."""
        self._mem_blocked = 0
        if self._greedy is not warp:
            self._greedy = warp
            self._gto_dirty = True

    def wake_at(self, cycle: int) -> None:
        """An external event (a load return) made a warp potentially
        issuable at ``cycle``: lower the sleep hint accordingly, and
        the owning SM's whole-tick sleep with it."""
        # A load return can un-block an MLP-capped warp (or retire a
        # drained one): the issue-stall memo's premise is gone.
        self._mem_blocked = 0
        if cycle < self._next_wake:
            self._next_wake = cycle
        sm = self.sm
        if sm is not None and cycle < sm._sleep_until:
            sm._sleep_until = cycle

    # ------------------------------------------------------------------
    def _priority_order(self) -> List[Warp]:
        """Warps in this cycle's selection priority, computed from
        scratch (:meth:`select_reference`; :meth:`select` consumes the
        same orders from cached structures without re-sorting)."""
        if not self._is_lrr:
            ordered = sorted(self.warps, key=_age_of)
            greedy = self._greedy
            if greedy is not None and greedy in self.warps:
                ordered.remove(greedy)
                ordered.insert(0, greedy)
            return ordered
        # LRR: rotate the start position each call.
        n = len(self.warps)
        if not n:
            return []
        start = self._lrr_pos % n
        self._lrr_pos += 1
        return self.warps[start:] + self.warps[:start]

    def _rebuild_gto_order(self) -> None:
        # C-level copy + remove/insert: greedy changes on most issues in
        # memory-bound phases, so rebuild cost is on the hot path.  The
        # order is built from the scan list — MLP-blocked and drained
        # warps would be skipped by the scan anyway (and stay fully
        # visible to the reference path via ``warps``).
        order = self._gto_order
        order[:] = self._scan
        greedy = self._greedy
        if greedy is not None and greedy in order:
            order.remove(greedy)
            order.insert(0, greedy)
        self._gto_dirty = False

    def select(self, cycle: int,
               mem_ok: Optional[Callable[[Warp, str], bool]],
               compute_ok: Optional[Callable[[str], bool]],
               warp_gated: Optional[Callable[[Warp], bool]] = None,
               ) -> Optional[Selection]:
        """Pick this scheduler's issue candidate for ``cycle``.

        ``mem_ok(warp, op)`` tells whether a memory instruction from
        that warp's kernel may issue this cycle (LSU space, MIL limit);
        ``compute_ok(op)`` tells whether the relevant execution port is
        free; ``warp_gated`` applies kernel-wide issue gates (SMK's
        warp-instruction quota) — ``None`` means ungated.  All three
        must be side-effect-free: the scheduler calls them only for
        candidates that matter.

        Three sentinels let the SM pre-resolve per-cycle verdicts:
        ``mem_ok=None`` — *no* memory instruction can issue (LSU full,
        the paper's memory-pipeline stall), ``mem_ok=True`` — *every*
        kernel's may (LSU free, no gate, unlimited MIL), and
        ``compute_ok=None`` — every compute port is free.

        A scan under ``compute_ok=None, warp_gated=None`` that finds
        ready warps and issues nothing leaves the issue-stall memo: the
        kernels it refused in ``_mem_blocked`` (every ready warp holds
        a memory instruction of one of them) and the next cycle a
        latency-blocked warp could change that in ``_mem_wake``.

        The first issuable warp in priority order wins.  Warps whose
        memory instruction is gated (``mem_ok`` False) are skipped —
        the scheduler moves on to other warps rather than wasting the
        slot, which is how MIL frees issue bandwidth for compute.

        The returned :class:`Selection` is a per-scheduler scratch
        object, valid until this scheduler's next ``select`` call.
        """
        warps = self.warps
        if cycle < self._next_wake:
            # Every warp is blocked on latency until _next_wake: the
            # scan below would return None.  Keep LRR's per-call
            # rotation exactly as the full scan would have (it only
            # advances while the scheduler owns warps).
            if self._is_lrr and warps:
                self._lrr_pos += 1
            return None
        n = len(warps)
        if not n:
            # Nothing to schedule until a warp is added (add_warp
            # resets the hint and wakes the SM).
            self._next_wake = NEVER
            return None

        if self._is_lrr:
            order = self._rot_buf
            order.clear()
            start = self._lrr_pos % n
            self._lrr_pos += 1
            order.extend(warps[start:])
            order.extend(warps[:start])
        else:
            if self._gto_dirty:
                self._rebuild_gto_order()
            order = self._gto_order

        primary_warp: Optional[Warp] = None
        primary_op: Optional[str] = None
        any_ready = False
        blocked = 0
        wake = NEVER
        alu = OP_ALU
        sfu = OP_SFU
        for warp in order:
            # Inlined Warp.issuable(cycle), tracking the earliest cycle
            # a latency-blocked warp becomes ready.
            if warp.outstanding_loads >= warp.mlp:
                continue  # MLP-blocked: woken by wake_at on load return
            op = warp.stream.next_op
            if op is None:
                continue  # stream drained, warp awaiting retirement
            ready_at = warp.ready_at
            if ready_at > cycle:
                if ready_at < wake:
                    wake = ready_at
                continue
            any_ready = True
            if warp_gated is not None and not warp_gated(warp):
                continue
            if op is alu or op is sfu:
                if compute_ok is not None and not compute_ok(op):
                    continue
                sel = self._sel
                if primary_warp is None:
                    sel.warp = warp
                    sel.op = op
                    sel.fallback = None
                    sel.fallback_op = None
                    sel.is_mem = False
                    return sel
                # primary is a mem candidate; this is its fallback.
                sel.warp = primary_warp
                sel.op = primary_op
                sel.fallback = warp
                sel.fallback_op = op
                sel.is_mem = True
                return sel
            # memory instruction
            if primary_warp is None:
                if mem_ok is True or (mem_ok is not None
                                      and mem_ok(warp, op)):
                    primary_warp = warp
                    primary_op = op
                    # keep scanning for a compute fallback
                else:
                    blocked |= 1 << warp.kernel_slot
        if primary_warp is None:
            if not any_ready:
                # Nothing was even latency-ready: sleep until the
                # earliest ready_at (or an external wake_at event).
                self._next_wake = wake
            elif compute_ok is None and warp_gated is None:
                # Ready warps exist but none issued and no port/gate
                # was limiting: every ready warp holds a memory
                # instruction of a kernel in ``blocked``.  That verdict
                # is frozen while those kernels stay closed — until a
                # latency-blocked warp (possibly compute-headed)
                # becomes ready at ``wake``, or an invalidating event
                # clears the memo.
                self._mem_blocked = blocked
                self._mem_wake = wake
            return None
        sel = self._sel
        sel.warp = primary_warp
        sel.op = primary_op
        sel.fallback = None
        sel.fallback_op = None
        sel.is_mem = True
        return sel

    def first_ready(self, cycle: int):
        """Pure introspection for stall attribution (observability).

        Returns ``(warp, op, status)`` for the highest-priority warp
        with work this cycle, where ``status`` is ``"ready"`` (warp is
        latency-ready: the warp the hardware would have issued),
        ``"blocked"`` (warps have work but all are scoreboard-blocked
        on latency or the MLP cap), or ``"empty"`` (no owned warp has
        work left; warp/op are ``None``).

        Unlike :meth:`_priority_order` this never mutates scheduler
        state: it walks the priority order the preceding ``select``
        call used this cycle (for LRR, ``select`` already advanced the
        rotation, hence the ``- 1``).  ``warps`` is kept age-sorted by
        :meth:`add_warp`, so the GTO order is the greedy warp followed
        by the list itself — no sort; meeting the greedy warp a second
        time at its age position is a no-op (it returned, was recorded
        as the blocked candidate, or has no work).
        """
        warps = self.warps
        n = len(warps)
        if not n:
            return None, None, "empty"
        if self._is_lrr:
            start = (self._lrr_pos - 1) % n
            order = warps[start:] + warps[:start]
        else:
            order = warps
            greedy = self._greedy
            if greedy is not None and greedy in warps:
                order = itertools.chain((greedy,), warps)
        blocked = None
        blocked_op = None
        for warp in order:
            op = warp.stream.next_op
            if op is None:
                continue
            if warp.ready_at <= cycle and warp.outstanding_loads < warp.mlp:
                return warp, op, "ready"
            if blocked is None:
                blocked = warp
                blocked_op = op
        if blocked is None:
            return None, None, "empty"
        return blocked, blocked_op, "blocked"

    def stall_verdict(self, cycle: int):
        """:meth:`first_ready` for a stretch of cycles this scheduler
        is not scanned in: ``(status, warps)`` where ``warps[i]`` is the
        warp :meth:`first_ready` names when LRR's rotation starts at
        position ``i`` (one entry under GTO, or when rotation cannot
        matter; ``None`` entries for ``"empty"``).  The status does not
        depend on the rotation — a ready warp anywhere outranks every
        blocked one — so one pass classifies the warps and a second,
        backwards over the doubled list, finds each start's pick."""
        warps = self.warps
        n = len(warps)
        if not self._is_lrr or n < 2:
            warp, _op, status = self.first_ready(cycle)
            return status, (warp,)
        level = [0] * n
        best = 0
        for i, warp in enumerate(warps):
            if warp.stream.next_op is None:
                continue
            if warp.ready_at <= cycle and warp.outstanding_loads < warp.mlp:
                level[i] = best = 2
            else:
                level[i] = 1
                if not best:
                    best = 1
        if not best:
            return "empty", (None,)
        picks = [None] * n
        pick = None
        for i in range(2 * n - 1, -1, -1):
            if level[i % n] == best:
                pick = warps[i % n]
            if i < n:
                picks[i] = pick
        return ("ready" if best == 2 else "blocked"), picks

    def select_reference(self, cycle: int,
                         mem_ok: Callable[[Warp, str], bool],
                         compute_ok: Callable[[str], bool],
                         warp_gated: Optional[Callable[[Warp], bool]],
                         ) -> Optional[Selection]:
        """Straightforward per-cycle scan (no caching, no sleep hints,
        no sentinels): the oracle SM's selection, which :meth:`select`
        is held bit-identical to."""
        primary: Optional[Warp] = None
        primary_op: Optional[str] = None
        for warp in self._priority_order():
            if not warp.issuable(cycle):
                continue
            if warp_gated is not None and not warp_gated(warp):
                continue
            op = warp.stream.next_op
            if op in (OP_ALU, OP_SFU):
                if not compute_ok(op):
                    continue
                if primary is None:
                    return Selection(warp, op)
                # primary is a mem candidate; this is its fallback.
                return Selection(primary, primary_op, warp, op)
            # memory instruction
            if primary is None and mem_ok(warp, op):
                primary = warp
                primary_op = op
                # keep scanning for a compute fallback
        if primary is None:
            return None
        return Selection(primary, primary_op)


def _age_of(warp: Warp) -> int:
    return warp.age
