"""The Streaming Multiprocessor: issue logic, execution units, TB
residency, and the scheme hooks.

Per cycle each SM:

1. launches at most one pending thread block (respecting the CKE
   layer's per-kernel TB limits and the Table 1 static resources);
2. lets every warp scheduler select a candidate; compute candidates
   issue immediately (per-scheduler ALU port, shared SFU port), memory
   candidates compete for the single LSU issue slot, arbitrated by the
   configured BMI policy and gated by the MIL limiter and the SMK
   quota gate;
3. ticks the LSU (one L1D request, or a stall).

The SM reports all scheme-relevant events (requests, reservation
failures, in-flight counts) to its :class:`~repro.core.SchemeBundle`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import GPUConfig
from repro.core.arbiter import SchemeBundle
from repro.core.bmi import MemIssuePolicy, UnmanagedIssue
from repro.core.mil import MemInstLimiter, NoLimit, subscribe_window
from repro.mem.cache import AccessResult, L1DCache
from repro.obs.stalls import (
    ISSUED,
    KERNEL_NONE,
    STALL_BMI_LOSS,
    STALL_EXEC_PORT,
    STALL_LSU_FULL,
    STALL_MIL_CAPPED,
    STALL_NO_WARP,
    STALL_OTHER,
    STALL_SCOREBOARD,
    STALL_SMK_GATE,
)
from repro.sim.lsu import LoadStoreUnit
from repro.sim.scheduler import NEVER, WarpScheduler
from repro.sim.stats import SLEEP_CAUSES, KernelStats, TimelineRecorder
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.kernel import OP_ALU, OP_SFU, OP_STORE


#: whole-SM sleep causes as indices into ``_slept`` (SLEEP_CAUSES order).
SLEEP_IDLE, SLEEP_BURST, SLEEP_STALL, SLEEP_MIL = range(len(SLEEP_CAUSES))

#: ``WarpScheduler.stall_verdict`` status -> the reason a scheduler
#: that is not being scanned owes its issue slots to.  ``ready`` can
#: only be the issue-stall memo (every ready warp holds a memory
#: instruction of a closed kernel): ``lsu_full`` while the LSU queue is
#: full, ``mil_capped`` while it is not (see ``_obs_freeze``).
_FROZEN_REASON = {"blocked": STALL_SCOREBOARD, "empty": STALL_NO_WARP}
_MEMO_REASONS = (STALL_LSU_FULL, STALL_MIL_CAPPED)


class _OwedSlots:
    """Issue slots ``first ..`` of one scheduler that stall attribution
    still owes, all to one frozen verdict: ``reason`` charged to
    ``kernels[(start + i) % len(kernels)]`` for the i-th owed slot (one
    kernel unless LRR's rotation moves the pick), valid while the
    scheduler is not scanned and ``cycle < until``."""

    __slots__ = ("first", "reason", "kernels", "start", "until")

    def __init__(self, first: int, reason: str, kernels, start: int,
                 until: int):
        self.first = first
        self.reason = reason
        self.kernels = kernels
        self.start = start
        self.until = until


class SMKernelState:
    """Per-SM runtime state for one resident kernel."""

    __slots__ = ("tb_limit", "tb_count", "inflight_minsts", "resident_warps")

    def __init__(self, tb_limit: int):
        self.tb_limit = tb_limit
        self.tb_count = 0
        self.inflight_minsts = 0
        self.resident_warps = 0


class StreamingMultiprocessor:
    """One SM instance."""

    def __init__(self, sm_id: int, config: GPUConfig, l1: L1DCache,
                 launches: List, bundle: SchemeBundle,
                 kernel_stats: Dict[int, KernelStats],
                 timeline: Optional[TimelineRecorder] = None,
                 fastpath: bool = True, obs=None):
        self.sm_id = sm_id
        self.config = config
        self.l1 = l1
        self.launches = launches
        self.bundle = bundle
        self.kernel_stats = kernel_stats
        self.timeline = timeline
        #: observability collector (None = zero-cost sentinel checks).
        self._obs = obs
        #: per-tick scratch for stall attribution: scheduler id ->
        #: issuing kernel, and scheduler id -> kernel that lost the
        #: BMI arbitration without a compute fallback.
        self._obs_issued: Dict[int, int] = {}
        self._obs_lost: Dict[int, int] = {}
        #: scheduler id -> the stretch of issue slots attribution still
        #: owes (see ``_obs_account``), the table they are paid into
        #: (None with obs off: nothing is ever owed then), and how many
        #: slots were paid in such batches (self-observability).
        self._obs_owed: List[Optional[_OwedSlots]] = (
            [None] * config.schedulers_per_sm)
        self._stall_table = obs.stalls if obs is not None else None
        self._obs_batched = 0

        self.lsu = LoadStoreUnit(sm_id, l1, width=config.lsu_width)
        self.lsu._obs = obs
        # One LSU tick per machine, bound once: the production tick
        # over pool slots (``l1`` is then a PooledL1DCache), or the
        # oracle's plain specification it is validated against
        # (bit-identity is asserted in tests/test_fastpath.py).
        self._lsu_tick = (self.lsu._tick_pooled if fastpath
                          else self.lsu.tick)
        self.schedulers = [WarpScheduler(i, config.scheduler_policy,
                                         fastpath=fastpath)
                           for i in range(config.schedulers_per_sm)]
        for sched in self.schedulers:
            sched.sm = self
        self.kstate: Dict[int, SMKernelState] = {
            launch.slot: SMKernelState(launch.tb_limits[sm_id])
            for launch in launches
        }
        #: kstate as a list — the slot set is fixed for the whole run,
        #: so per-tick iteration avoids rebuilding a dict view.
        self._kstate_items = list(self.kstate.items())
        self._launch_by_slot = {launch.slot: launch for launch in launches}
        # The bypass set is fixed per run: give the LSU a plain dict
        # instead of a per-request predicate call.
        self.lsu.bypass_by_kernel = {
            launch.slot: bundle.bypasses_l1d(launch.slot)
            for launch in launches
        }

        # Static resource bookkeeping.
        self._used_threads = 0
        self._used_warps = 0
        self._used_regs = 0
        self._used_smem = 0
        self._used_tbs = 0

        self._warp_age = 0
        self._next_tb_id = 0
        self._sched_rr = 0
        self._launch_rr = 0
        self._sfu_used = False
        self.alu_busy = 0
        self.sfu_busy = 0

        # Hot-loop state for the issue callbacks (set per tick) plus
        # bound-method references so tick() allocates no closures.
        # LSU occupancy and MIL verdicts depend only on the kernel slot
        # and on state that is frozen during the selection phase, so
        # the fast path resolves them once per tick into the
        # open-kernel mask (bit k: kernel k's memory instructions may
        # issue) instead of re-deriving them per candidate warp.  The
        # SMK gate is NOT frozen — compute issues during the scheduler
        # loop consume quota via note_issue — so gate verdicts are
        # always queried live, exactly as the reference closures do.
        self._fastpath = fastpath
        # Run-constant scheme components, hoisted out of tick() and the
        # issue callbacks.
        self._gate = bundle.smk_gate
        self._ucp = bundle.ucp
        self._limiter = bundle.limiter
        self._lsu_free = True
        #: the open-kernel mask of the latest tick that resolved one
        #: through the limiter (LSU free, MIL limited); a full LSU is
        #: mask 0 and an unlimited MIL all-ones, neither stored.
        self._open = 0
        # With no SMK gate and an unlimited MIL, the per-kernel verdict
        # collapses to "is the LSU free".
        self._limiter_unlimited = isinstance(bundle.limiter, NoLimit)
        # Baseline runs leave every scheme observation hook at its
        # empty base-class implementation; detecting that once lets
        # the per-issue and per-request paths skip the calls outright
        # (a pure no-op either way, so both loops take the same skip).
        lim_cls = type(bundle.limiter)
        pol_cls = type(bundle.mem_policy)
        self._mem_hooks_inert = (
            lim_cls.note_request is MemInstLimiter.note_request
            and lim_cls.note_rsfail is MemInstLimiter.note_rsfail
            and lim_cls.observe_inflight is MemInstLimiter.observe_inflight
            and pol_cls.note_mem_inst is MemIssuePolicy.note_mem_inst
            and pol_cls.note_request is MemIssuePolicy.note_request
            and bundle.ucp is None
        )
        # Everything the pooled LSU tick's per-call checks depend on
        # (hook inertness, timeline) is fixed for the run: resolve
        # them into the LSU once instead of per cycle.
        self.lsu._inline_stats = (
            kernel_stats
            if self._mem_hooks_inert and timeline is None else None)
        if lim_cls.note_rsfail is not MemInstLimiter.note_rsfail:
            self.lsu._rsfail_hook = bundle.limiter.note_rsfail
        #: issue-through (see ``_issue_mem``) is the production
        #: machine's, and only unobserved: an observed or timelined run
        #: wants every request's events, so it keeps the queue path.
        self._through_ok = fastpath and obs is None and timeline is None
        #: the baseline policy's pick is pure "first proposer wins":
        #: skip the candidate-list build and the dispatch entirely.
        self._pick_trivial = pol_cls.pick is UnmanagedIssue.pick
        # Scheduler issue orders for each round-robin start, prebuilt.
        nsched = len(self.schedulers)
        self._sched_orders = [
            tuple(self.schedulers[(s + o) % nsched] for o in range(nsched))
            for s in range(nsched)
        ]
        self._mem_ok_cb = self._mem_ok
        self._mem_ok_gated_cb = self._mem_ok_gated
        self._compute_ok_cb = self._compute_ok
        self._warp_gated_cb = self._warp_gated
        #: True while a TB-launch scan is known to be futile; cleared
        #: whenever residency or a TB limit changes.
        self._launch_blocked = False
        #: whole-SM sleep: while ``cycle < _sleep_until`` the entire
        #: tick is provably a no-op and is skipped.  Eligible under
        #: GTO and LRR with no UCP (UCP ticks its epoch counter every
        #: cycle).  LRR's only per-cycle state is the rotation
        #: position, which tick() catches up from the cycle gap —
        #: select() advances it exactly once per call whenever the
        #: scheduler owns warps, so skipped cycles owe one advance
        #: each.
        self._sleep_until = 0
        self._last_tick = -1
        self._sleep_eligible = (fastpath
                                and config.scheduler_policy in ("gto", "lrr")
                                and bundle.ucp is None)
        #: why the SM last went to sleep, whether any scheduler was
        #: mid-burst when it did, and slept cycles per cause
        #: (self-observability; paid once per wake in _pay_sleep_debt).
        self._sleep_cause = SLEEP_IDLE
        self._sleep_bursting = False
        #: kernels whose MIL cap this sleep rests on: the union of the
        #: issue-stall memos that froze a scheduler while the LSU queue
        #: had room (0 when it was full — nothing can open then).  An
        #: in-flight decrement that re-opens one of them ends the sleep
        #: (``_on_meminst_complete``).
        self._sleep_blocked = 0
        #: whether the last memory-stall sleep skipped any cycle at
        #: all.  A release on the very next cycle makes a sleep pure
        #: overhead (scan, arm, wake) — the rule on a machine whose L1s
        #: see a fill or a drain almost every cycle — so after such a
        #: sleep the SM waits for a replayed stall (a cycle without a
        #: release) before sleeping again.  Host-time heuristic only:
        #: sleeping less is always exact.
        self._stall_sleep_pays = True
        #: times an L1 release hook ended (or came after) a memory-stall
        #: sleep: each costs one tick and one real lookup of the stalled
        #: head (self-observability).
        self._stall_wakes = 0
        self._slept = [0] * len(SLEEP_CAUSES)
        self._lrr = config.scheduler_policy == "lrr"
        #: issue autopilot eligibility (see WarpScheduler._auto_warp):
        #: after a compute issue the greedy warp's run of consecutive
        #: ALU ops is issued one per cycle without re-running select().
        #: Bursts bypass _issue_compute's gate/timeline/trace hooks, so
        #: autopilot only arms when all of those are provably inert,
        #: and only under GTO (the burst relies on the greedy warp
        #: holding priority[0] between issues).  Stall attribution
        #: needs no hook: a burst's slots are owed as ``issued`` to the
        #: bursting kernel (see ``_obs_account``); only a recorded
        #: trace wants its per-issue slices and keeps the burst off.
        self._auto_ok = (fastpath
                         and config.scheduler_policy == "gto"
                         and bundle.smk_gate is None
                         and timeline is None
                         and not (obs is not None
                                  and obs.trace is not None))
        # Scheme window boundaries (DMIL limit recompute, QBMI quota
        # replenish, Req/Minst refresh) change issue eligibility with
        # no scheduler wake attached: subscribe to them, so an SM
        # asleep on a MIL verdict wakes.  Global DMIL's MILGs are
        # shared: every SM subscribes.
        limiter = bundle.limiter
        milgs = getattr(limiter, "milgs", None)
        if milgs is None:
            shared = getattr(limiter, "shared", None)
            if shared is not None:
                milgs = getattr(shared, "milgs", None)
        policy = bundle.mem_policy
        sources = list(milgs or ()) + list(
            getattr(policy, "estimators", None) or ())
        if hasattr(policy, "on_window"):
            sources.append(policy)
        for source in sources:
            subscribe_window(source, self._note_scheme_window)

    # ------------------------------------------------------------------
    # thread block launch
    def _fits(self, launch) -> bool:
        cfg = self.config
        profile = launch.profile
        warps = profile.warps_per_tb(cfg.warp_size)
        return (
            self._used_tbs + 1 <= cfg.max_tbs_per_sm
            and self._used_threads + profile.threads_per_tb <= cfg.max_threads_per_sm
            and self._used_warps + warps <= cfg.max_warps_per_sm
            and self._used_regs + profile.regs_per_thread * profile.threads_per_tb
                <= cfg.registers_per_sm
            and self._used_smem + profile.smem_per_tb <= cfg.smem_per_sm
        )

    def try_launch_tb(self, cycle: int) -> None:
        """Launch at most one TB, round-robin over kernels.

        A failed scan is remembered (``_launch_blocked``): launchability
        only changes when a TB retires or a TB limit is reconfigured,
        both of which clear the flag, so blocked cycles skip the scan
        (fast path only; the reference loop always rescans).
        """
        if self._launch_blocked and self._fastpath:
            return
        n = len(self.launches)
        if not n:
            return
        start = self._launch_rr
        for offset in range(n):
            launch = self.launches[(start + offset) % n]
            state = self.kstate[launch.slot]
            if state.tb_count >= state.tb_limit:
                continue
            if not self._fits(launch):
                continue
            self._launch_rr = (start + offset + 1) % n
            self._launch(launch, cycle)
            return
        self._launch_blocked = True

    def _launch(self, launch, cycle: int) -> None:
        cfg = self.config
        profile = launch.profile
        tb = ThreadBlock(self._next_tb_id, launch.slot, profile)
        self._next_tb_id += 1
        warps_per_tb = profile.warps_per_tb(cfg.warp_size)
        for _ in range(warps_per_tb):
            warp_index = launch.next_warp_index()
            stream = launch.new_stream(warp_index)
            warp = Warp(warp_index, launch.slot, tb, stream, self._warp_age,
                        mlp=profile.mlp)
            warp.ready_at = cycle + 1
            self._warp_age += 1
            tb.warps.append(warp)
            tb.live_warps += 1
            # Balance warps across schedulers.
            sched = min(self.schedulers, key=lambda s: len(s.warps))
            sched.add_warp(warp)
        state = self.kstate[launch.slot]
        state.tb_count += 1
        state.resident_warps += warps_per_tb
        self._used_tbs += 1
        self._used_threads += profile.threads_per_tb
        self._used_warps += warps_per_tb
        self._used_regs += profile.regs_per_thread * profile.threads_per_tb
        self._used_smem += profile.smem_per_tb
        self.kernel_stats[launch.slot].tbs_launched += 1
        if self._obs is not None:
            # New warps change who a latency-asleep scheduler's slots
            # are owed to (an empty one now has work): pay up to here.
            for sched in self.schedulers:
                self._obs_thaw(sched, cycle)

    def _retire_tb(self, tb: ThreadBlock) -> None:
        profile = tb.profile
        warps_per_tb = len(tb.warps)
        state = self.kstate[tb.kernel_slot]
        state.tb_count -= 1
        state.resident_warps -= warps_per_tb
        self._used_tbs -= 1
        self._used_threads -= profile.threads_per_tb
        self._used_warps -= warps_per_tb
        self._used_regs -= profile.regs_per_thread * profile.threads_per_tb
        self._used_smem -= profile.smem_per_tb
        self._launch_blocked = False
        # Freed residency may admit a new TB: resume ticking.
        self._sleep_until = 0
        self.kernel_stats[tb.kernel_slot].tbs_completed += 1

    def _finish_warp(self, warp: Warp) -> None:
        # The owning scheduler is recorded on the warp at add_warp
        # time, so retirement needs no scan over schedulers.
        warp.sched.remove_warp(warp)
        warp.tb.note_warp_done()
        if warp.tb.done:
            self._retire_tb(warp.tb)

    # ------------------------------------------------------------------
    # issue
    def _open_mask(self) -> int:
        """The limiter's per-kernel verdicts as one bit per kernel slot
        (pure: the limiter reads its limits and the in-flight counts,
        both frozen during the selection phase)."""
        limiter = self._limiter
        mask = 0
        for k, st in self._kstate_items:
            if limiter.can_issue(k, st.inflight_minsts):
                mask |= 1 << k
        return mask

    def _mem_ok(self, warp: Warp, op: str) -> int:
        return self._open >> warp.kernel_slot & 1

    def _mem_ok_gated(self, warp: Warp, op: str) -> bool:
        # Gate queried live: quota may have been consumed by an issue
        # earlier in this same cycle's scheduler loop.
        k = warp.kernel_slot
        return self._open >> k & 1 and self._gate.can_issue(k)

    def _compute_ok(self, op: str) -> bool:
        return not (op == OP_SFU and self._sfu_used)

    def _warp_gated(self, warp: Warp) -> bool:
        return self._gate.can_issue(warp.kernel_slot)

    def tick(self, cycle: int) -> None:
        if cycle < self._sleep_until:
            # Whole-SM sleep (see __init__): nothing can launch, issue
            # or drain before _sleep_until; external events lower it.
            return
        last = self._last_tick
        self._last_tick = cycle
        if cycle - last > 1 and self._fastpath:
            self._pay_sleep_debt(cycle - last - 1)
        fastpath = self._fastpath
        if self._ucp is not None:
            self._ucp.tick(cycle)
        if not (self._launch_blocked and fastpath):
            # Inlined try_launch_tb fast-out: a blocked scan stays
            # blocked until residency or a limit changes.
            self.try_launch_tb(cycle)
        self._sfu_used = False

        gate = self._gate
        lsu = self.lsu
        self._lsu_free = lsu_free = len(lsu.queue) < lsu.queue_depth
        if fastpath:
            # Resolve the open-kernel mask once: the gate, the limiter
            # and the LSU occupancy are all frozen during the selection
            # phase, and all their predicates are pure.  A full LSU
            # closes every kernel (mask 0, ``mem_ok=None``: the
            # scheduler's "nothing mem can issue" sentinel — the
            # memory-pipeline-stall case, where per-warp callback
            # dispatch would be pure overhead); an unlimited MIL opens
            # every kernel (``mem_ok=True``: no dispatch either, and no
            # mask — ``None``, on which the memo test below
            # short-circuits, as it does under a gate, which never
            # leaves a memo); else one bit per kernel from the limiter.
            open_mask = None
            if gate is None:
                # With no SMK gate every warp is ungated; passing None
                # lets the scheduler skip the per-warp check entirely.
                warp_gated = None
                if not lsu_free:
                    mem_ok = None
                    open_mask = 0
                elif self._limiter_unlimited:
                    mem_ok = True
                else:
                    self._open = open_mask = self._open_mask()
                    mem_ok = self._mem_ok_cb
            else:
                warp_gated = self._warp_gated_cb
                if lsu_free:
                    self._open = self._open_mask()
                    mem_ok = self._mem_ok_gated_cb
                else:
                    mem_ok = None
            compute_ok = self._compute_ok_cb
        else:
            # Reference loop: allocate the callbacks as per-cycle
            # closures, the straightforward implementation the fast
            # path is benchmarked against.
            limiter = self.bundle.limiter
            lsu_free = self._lsu_free

            def mem_ok(warp: Warp, op: str) -> bool:
                k = warp.kernel_slot
                if gate is not None and not gate.can_issue(k):
                    return False
                return lsu_free and limiter.can_issue(
                    k, self.kstate[k].inflight_minsts)

            def compute_ok(op: str) -> bool:
                return not (op == OP_SFU and self._sfu_used)

            def warp_gated(warp: Warp) -> bool:
                return gate is None or gate.can_issue(warp.kernel_slot)

        mem_proposals = None
        n = len(self.schedulers)
        start = self._sched_rr
        self._sched_rr = (start + 1) % n
        for sched in self._sched_orders[start]:
            if sched._auto_left:
                # Issue autopilot: the greedy warp's precompiled run of
                # consecutive ALU ops issues one instruction per cycle
                # without re-running selection — provably what select()
                # would pick (see WarpScheduler._auto_warp).  Armed
                # only when gate/timeline/obs are inert (_auto_ok), so
                # this inlines exactly _issue_compute's live effects.
                warp = sched._auto_warp
                if warp.ready_at <= cycle:
                    # The stream was advanced past the whole run at
                    # arming time, so a burst pop is pure bookkeeping.
                    stats = sched._auto_stats
                    stats.warp_insts += 1
                    stats.alu_insts += 1
                    self.alu_busy += 1
                    warp.ready_at = cycle + 1
                    left = sched._auto_left - 1
                    sched._auto_left = left
                    if not left:
                        sched._auto_warp = None
                        stream = warp.stream
                        if stream.next_op is None:
                            if not warp.outstanding_loads:
                                self._finish_warp(warp)
                            else:
                                sched.scan_block(warp)
                    continue
                # A returned load raised the warp's scoreboard past
                # this cycle (Warp.note_load_done): select() would now
                # skip it and may pick a different warp, so the burst
                # premise is gone — disarm, give the unissued remainder
                # of the pre-advanced run back to the stream, and fall
                # through to the normal selection path.
                sched._auto_warp = None
                warp.stream.rewind_alu(sched._auto_left)
                sched._auto_left = 0
                if self._obs is not None:
                    # The burst's owed ``issued`` slots end here.
                    self._obs_close(sched.sched_id, cycle)
            if fastpath:
                if cycle < sched._next_wake:
                    # select()'s latency-sleep early-out, inlined to
                    # save the call: every warp is blocked until
                    # _next_wake, so select would return None (LRR
                    # still owes its per-call rotation).
                    if self._lrr and sched.warps:
                        sched._lrr_pos += 1
                    continue
                if (open_mask is not None
                        and (blocked := sched._mem_blocked)
                        and not blocked & open_mask
                        and cycle < sched._mem_wake):
                    # Issue-stall memo: every ready warp still holds a
                    # memory instruction of a kernel that is still
                    # closed — by the full LSU (every kernel) or by its
                    # MIL cap (see WarpScheduler._mem_blocked) — so
                    # select() would provably return None.  Keep LRR's
                    # once-per-call rotation exactly as that call
                    # would have.
                    if self._lrr and sched.warps:
                        sched._lrr_pos += 1
                    continue
                # compute_ok=None: every port free (no SFU issued yet
                # this cycle) — the scheduler skips the callback.
                sel = sched.select(
                    cycle, mem_ok,
                    compute_ok if self._sfu_used else None, warp_gated)
            else:
                sel = sched.select(cycle, mem_ok, compute_ok, warp_gated)
            if sel is None:
                continue
            if sel.is_mem:
                if mem_proposals is None:
                    mem_proposals = [(sched, sel)]
                else:
                    mem_proposals.append((sched, sel))
            else:
                self._issue_compute(sched, sel.warp, sel.op, cycle)

        if mem_proposals is not None:
            if self._pick_trivial:
                winner = 0
            else:
                kernels = [sel.warp.kernel_slot for _, sel in mem_proposals]
                winner = self.bundle.mem_policy.pick(kernels)
            for idx, (sched, sel) in enumerate(mem_proposals):
                if idx == winner:
                    self._issue_mem(sched, sel.warp, sel.op, cycle)
                elif sel.fallback is not None and compute_ok(sel.fallback_op):
                    self._issue_compute(sched, sel.fallback, sel.fallback_op, cycle)
                elif self._obs is not None:
                    self._obs_lost[sched.sched_id] = sel.warp.kernel_slot

        if self._obs is not None:
            self._obs_account(self._obs, cycle)
        stalled = self._lsu_tick(cycle, self)

        if gate is not None:
            resident = [k for k, st in self.kstate.items() if st.resident_warps]
            if resident:
                gate.maybe_reset(resident)
        elif self._sleep_eligible and self._launch_blocked and (
                (lsu._stall_owed or self._stall_sleep_pays) if stalled
                else not lsu.queue):
            # Every scheduler is either mid-ALU-burst (autopilot) or its
            # latest scan found nothing latency-ready (future hint), no
            # TB can launch and the LSU is drained: the SM's next ticks
            # are fully determined — each slept cycle issues exactly one
            # ALU per bursting scheduler and nothing else.  Sleep until
            # the earliest of the burst ends and the scheduler wakes;
            # the wake-up tick pays the slept issues in one batch
            # (_pay_sleep_debt).  A load return that would break a
            # burst early lowers _sleep_until to its own cycle
            # (_on_meminst_complete), so the burst premise provably
            # holds for every slept cycle.  (A mid-burst scheduler's
            # _next_wake is <= its arming cycle, so bursts contribute
            # their end cycle here instead.)
            #
            # Memory-stall sleep: the LSU is not drained but its head
            # ended this cycle on a memoised, deferrable reservation
            # failure (``stalled``; only ``_tick_pooled`` ever reports
            # it), so until the L1 releases a resource of the class the
            # verdict reads (a miss-queue drain for ``rsfail_missq``, a
            # fill for the rest) each LSU tick is exactly
            # ``_stall_owed += 1`` — and that class's release site calls
            # the hook armed below, which wakes this SM in the same
            # cycle (memory ticks first); the other class cannot move
            # the verdict and no longer wakes anybody.
            # A failure that is new this cycle (no replay owed yet) is
            # slept on only while such sleeps pay (_stall_sleep_pays).
            #
            # Issue-stall sleep: a scheduler whose latest scan left the
            # issue-stall memo keeps skipping select() until
            # ``_mem_wake`` while every kernel in its blocked set stays
            # closed, exactly as the per-cycle check above would.  The
            # mask the next ticks would resolve is re-derived here,
            # after this cycle's issues and LSU tick (which may have
            # moved the queue, an in-flight count or a DMIL limit).  It
            # cannot move while the SM sleeps: the queue can neither
            # grow (nothing issues) nor shrink (the head is stuck, or
            # there is none), so its fullness is frozen for the whole
            # gap; a static limit never moves, a local MILG recomputes
            # only inside this SM's LSU tick, a global one wakes every
            # SM (``_note_scheme_window``); and an in-flight decrement
            # that opens a kernel some scheduler waits on
            # (``_sleep_blocked``) wakes the SM on its own cycle
            # (``_on_meminst_complete``).  With an unlimited MIL and
            # the queue drained every kernel is open and no memo can
            # hold: such runs skip the test on a local.
            memo_live = stalled or not self._limiter_unlimited
            open_next = None
            waits_on = 0
            bursting = False
            soonest = cycle + 1
            wake = NEVER
            for sched in self.schedulers:
                left = sched._auto_left
                if left:
                    nw = cycle + left
                    bursting = True
                else:
                    nw = sched._next_wake
                    if memo_live and nw <= cycle:
                        blocked = sched._mem_blocked
                        if blocked:
                            if open_next is None:
                                lsu_full = len(lsu.queue) >= lsu.queue_depth
                                if lsu_full:
                                    open_next = 0
                                elif self._limiter_unlimited:
                                    open_next = -1
                                else:
                                    open_next = self._open_mask()
                            if not blocked & open_next:
                                nw = sched._mem_wake
                                if not lsu_full:
                                    waits_on |= blocked
                if nw <= soonest:
                    # This scheduler acts next cycle: no sleep.
                    break
                if nw < wake:
                    wake = nw
            else:
                if stalled:
                    self._sleep_cause = SLEEP_STALL
                    self._stall_sleep_pays = False
                    lsu.arm_release(self._end_stall_sleep)
                elif waits_on:
                    self._sleep_cause = SLEEP_MIL
                else:
                    self._sleep_cause = (SLEEP_BURST if bursting
                                         else SLEEP_IDLE)
                self._sleep_blocked = waits_on
                self._sleep_bursting = bursting
                self._sleep_until = wake
                if self._obs is not None:
                    # Every scheduler is frozen from the next cycle on:
                    # name the verdict its slept slots are owed to.
                    self._obs_freeze_all(cycle + 1)

    def _issue_compute(self, sched: WarpScheduler, warp: Warp, op: str,
                       cycle: int) -> None:
        stream = warp.stream
        k = warp.kernel_slot
        stats = self.kernel_stats[k]
        stats.warp_insts += 1
        armed = False
        if op is OP_ALU:
            stats.alu_insts += 1
            self.alu_busy += 1
            warp.ready_at = cycle + 1
            if self._auto_ok:
                # This warp is now the greedy warp; if its (precompiled)
                # stream continues with a run of ALU ops, arm the issue
                # autopilot to burn the run down without reselection.
                # The fused pop advances past the whole run up front
                # (one call instead of one pop per burst cycle); a
                # mid-burst disarm rewinds the unissued remainder.
                # Pre-advancing leaves ``next_op`` pointing past the
                # run for the rest of the burst, so it is only allowed
                # when no in-flight load of this warp could observe
                # that future state through ``_on_meminst_complete`` —
                # i.e. when the warp has no outstanding loads
                # (``allow_end``), or when the run provably leaves more
                # work (``next_op`` non-None), which is all the
                # completion path inspects.
                run = stream.pop_alu_burst(not warp.outstanding_loads)
                if run:
                    sched._auto_warp = warp
                    sched._auto_left = run
                    sched._auto_stats = stats
                    armed = True
            else:
                stream.pop()
        else:
            stream.pop()
            stats.sfu_insts += 1
            self.sfu_busy += 1
            self._sfu_used = True
            warp.ready_at = cycle + 4
        sched.note_issued(warp)
        gate = self._gate
        if gate is not None:
            gate.note_issue(k)
        if self.timeline is not None:
            self.timeline.bump("insts", k, cycle)
        if self._obs is not None:
            self._obs_issued[sched.sched_id] = k
            self._obs.issue_event(self.sm_id, sched.sched_id, k, op, cycle)
        # An armed burst defers the drain check to its last pop (the
        # pre-advanced ``next_op`` may already read as drained).
        if not armed and stream.next_op is None:
            if not warp.outstanding_loads:
                self._finish_warp(warp)
            else:
                # Drained but loads still in flight: off-scan until the
                # last return retires it.
                sched.scan_block(warp)

    def _issue_mem(self, sched: WarpScheduler, warp: Warp, op: str,
                   cycle: int) -> None:
        stream = warp.stream
        k = warp.kernel_slot
        is_store = op == OP_STORE
        # Lines are already rebased into global line space by the
        # stream (see KernelLaunch.new_stream); for replay streams this
        # is a fresh slice, for live streams a fresh pattern list —
        # safe to hand to the MemInst without copying.
        lines = stream.pop_mem(is_store)
        lsu = self.lsu
        stats = self.kernel_stats[k]
        state = self.kstate[k]
        state.inflight_minsts += 1
        hooks_live = not self._mem_hooks_inert
        if hooks_live:
            bundle = self.bundle
            bundle.limiter.observe_inflight(k, state.inflight_minsts)
            bundle.mem_policy.note_mem_inst(k)
        # Issue-through (docs/PERF.md section 8): with the LSU queue
        # empty, this cycle's LSU tick would look up exactly these
        # lines, against exactly this L1 state.  If a read-only probe
        # finds every one a hit the load is finished right here — the
        # hits committed in line order with the per-request hooks, then
        # what the completion callback would do — and no MemInst, queue
        # entry, pool slot or callback exists.  One cold line, and the
        # probe has changed nothing: the queue path below runs as ever.
        through = False
        if (self._through_ok and not is_store and not lsu.queue
                and len(lines) <= lsu.width
                and not lsu.bypass_by_kernel[k]):
            l1 = self.l1
            ways = [l1.probe_hit(line) for line in lines]
            if -1 not in ways:
                through = True
                if hooks_live:
                    for way, line in zip(ways, lines):
                        l1.commit_hit(way, k)
                        self.on_request_issued_values(
                            k, line, False, AccessResult.HIT, cycle)
                else:
                    # on_request_issued_values with inert hooks and no
                    # timeline is this one bump (what the LSU tick's
                    # ``_inline_stats`` does); the call per request
                    # costs 3.5 % of sm16_compute's wall_s (PERF.md §8).
                    for way in ways:
                        l1.commit_hit(way, k)
                    stats.mem_requests += len(ways)
                lsu.busy_cycles += 1
                lsu.insts_through += 1
                state.inflight_minsts -= 1
                if hooks_live:
                    bundle.limiter.observe_inflight(k, state.inflight_minsts)
        if not through:
            lsu.enqueue(MemInst(warp, lines, is_store,
                                self._on_meminst_complete))
            # Inlined Warp.note_load_issued (stores just set the
            # scoreboard).
            if not is_store:
                warp.outstanding_loads += 1

        stats.warp_insts += 1
        stats.mem_insts += 1
        warp.ready_at = cycle + 1
        sched.note_issued(warp)
        gate = self._gate
        if gate is not None:
            gate.note_issue(k)
        if self.timeline is not None:
            self.timeline.bump("insts", k, cycle)
        if self._obs is not None:
            self._obs_issued[sched.sched_id] = k
            self._obs.issue_event(self.sm_id, sched.sched_id, k, op, cycle)
        # Scan-list upkeep (one transition max per issue): a drained
        # warp retires or waits out its loads off-scan; a load that
        # filled the MLP complement blocks the warp until a return
        # (scan_unblock in _on_meminst_complete).  A load that went
        # through is not outstanding: it can only drain the stream.
        if stream.next_op is None:
            if not warp.outstanding_loads:
                self._finish_warp(warp)
            else:
                sched.scan_block(warp)
        elif not is_store and warp.outstanding_loads >= warp.mlp:
            sched.scan_block(warp)

    # ------------------------------------------------------------------
    # stall attribution (observability; never reached with obs off)
    def _obs_account(self, obs, cycle: int) -> None:
        """Classify every scheduler's issue-slot outcome this cycle.

        An issuing scheduler counts as ``issued``; a non-issuing one is
        attributed to the reason its highest-priority latency-ready
        warp (the warp the hardware would have issued) could not go —
        see :mod:`repro.obs.stalls` for the taxonomy.  Residual
        same-cycle races (e.g. a gate quota consumed between selection
        and attribution) land in ``other``.

        A scheduler the production machine does not scan — mid-burst on
        the issue autopilot, latency-asleep until ``_next_wake``, or
        behind the memory-stall memo — repeats one verdict for the whole
        stretch (docs/PERF.md, "Attribution debts"), so its slots are
        *owed* (``_obs_owed``) and charged ``reason x gap`` when the
        stretch ends: here, at the disarm, launch and load-return hooks,
        or when the engine settles.  A whole-SM sleep is every
        scheduler's stretch running on while this is not called at all.
        The oracle never sets the hints below, so it classifies every
        slot on the spot.

        ``obs`` is the already-guarded sentinel: the caller only
        reaches here under ``if self._obs is not None``.
        """
        table = obs.stalls
        sm_id = self.sm_id
        issued = self._obs_issued
        lost = self._obs_lost
        owed = self._obs_owed
        for sched in self.schedulers:
            sid = sched.sched_id
            k = issued.get(sid)
            stretch = owed[sid]
            if stretch is not None:
                reason = stretch.reason
                if reason is ISSUED:
                    # Still armed after the scheduler loop: this cycle
                    # was a burst pop (a disarm closes the stretch).
                    if not sched._auto_left:
                        self._obs_close(sid, cycle + 1)
                    continue
                if (k is None and sid not in lost and cycle < stretch.until
                        and (reason not in _MEMO_REASONS
                             or (reason is self._memo_reason(self._lsu_free)
                                 and self._memo_holds(sched)))):
                    continue
                self._obs_close(sid, cycle)
            if k is not None:
                table.bump_sched(sm_id, sid, k, ISSUED)
                if sched._auto_left:
                    # The issue armed the autopilot: the run's slots
                    # are this kernel's, one per cycle from the next.
                    owed[sid] = _OwedSlots(cycle + 1, ISSUED, (k,), 0,
                                           NEVER)
                continue
            k = lost.get(sid)
            if k is not None:
                table.bump_sched(sm_id, sid, k, STALL_BMI_LOSS)
                continue
            if cycle < sched._next_wake or (
                    cycle < sched._mem_wake and self._memo_holds(sched)):
                # Not scanned again before the hint expires: owe this
                # slot and the following ones to one verdict.
                owed[sid] = self._obs_freeze(sched, cycle, self._lsu_free)
                continue
            warp, op, status = sched.first_ready(cycle)
            if status == "empty":
                table.bump_sched(sm_id, sid, KERNEL_NONE, STALL_NO_WARP)
                continue
            k = warp.kernel_slot
            if status == "blocked":
                table.bump_sched(sm_id, sid, k, STALL_SCOREBOARD)
                continue
            # A latency-ready warp had work but nothing issued: pin the
            # denial on the gate, the port, or the memory pipeline.
            gate = self._gate
            if gate is not None and not gate.can_issue(k):
                reason = STALL_SMK_GATE
            elif op == OP_SFU or op == OP_ALU:
                reason = (STALL_EXEC_PORT
                          if op == OP_SFU and self._sfu_used
                          else STALL_OTHER)
            elif not self._lsu_free:
                reason = STALL_LSU_FULL
            elif not self.bundle.limiter.can_issue(
                    k, self.kstate[k].inflight_minsts):
                reason = STALL_MIL_CAPPED
            else:
                reason = STALL_OTHER
            table.bump_sched(sm_id, sid, k, reason)
        issued.clear()
        lost.clear()

    def _memo_holds(self, sched: WarpScheduler) -> bool:
        """Whether ``sched``'s issue-stall memo holds against this
        tick's open-kernel mask — the skip test of ``tick``, read back
        after the scheduler loop (``_open`` is only stored on the ticks
        that resolve it through the limiter)."""
        blocked = sched._mem_blocked
        if not blocked or not self._lsu_free:
            return bool(blocked)
        return not (self._limiter_unlimited or blocked & self._open)

    @staticmethod
    def _memo_reason(lsu_free: bool) -> str:
        """What the oracle charges a slot behind the issue-stall memo
        to: it tests the LSU queue before the limiter, and with room in
        the queue the picked warp's kernel is in the blocked set —
        capped, whichever warp LRR's rotation picks."""
        return STALL_MIL_CAPPED if lsu_free else STALL_LSU_FULL

    def _obs_freeze(self, sched: WarpScheduler, first: int,
                    lsu_free: bool) -> _OwedSlots:
        """The verdict ``sched``'s slots from cycle ``first`` on are
        owed to while it is not scanned: what the oracle's per-slot
        classification reads at ``first``, which nothing but an issue,
        a launch, a load return, the LSU queue crossing full
        (``lsu_free``: the queue state the tick at ``first`` resolves)
        or the hint's expiry can change.  Under
        LRR the pick rotates with ``_lrr_pos`` (advanced once per
        cycle, here or in ``_pay_sleep_debt``); the rotation start at
        ``first`` follows from the cycles ``_lrr_pos`` is behind."""
        status, warps = sched.stall_verdict(first)
        if status != "ready":
            reason = _FROZEN_REASON[status]
            until = sched._next_wake
        else:
            reason = self._memo_reason(lsu_free)
            # Without a memo the verdict was named by a load return
            # that voided it: good for the cycles this SM sleeps on,
            # not for one it ticks (the scan there re-derives the memo,
            # maybe for another warp).
            until = sched._mem_wake if sched._mem_blocked else first
        kernels = tuple(KERNEL_NONE if warp is None else warp.kernel_slot
                        for warp in warps)
        start = 0
        if len(kernels) > 1:
            start = ((sched._lrr_pos + first - 1 - self._last_tick)
                     % len(kernels))
        return _OwedSlots(first, reason, kernels, start, until)

    def _obs_freeze_all(self, first: int) -> None:
        """The SM sleeps from cycle ``first``: every scheduler without a
        stretch gets one, and a memo stretch opened under the queue
        state this tick began with is re-named if the tick's own issues
        or LSU tick moved the queue across full."""
        owed = self._obs_owed
        lsu = self.lsu
        lsu_free = len(lsu.queue) < lsu.queue_depth
        reason = self._memo_reason(lsu_free)
        for sched in self.schedulers:
            sid = sched.sched_id
            stretch = owed[sid]
            if (stretch is not None and stretch.reason in _MEMO_REASONS
                    and stretch.reason is not reason):
                self._obs_close(sid, first)
                stretch = None
            if stretch is None:
                owed[sid] = self._obs_freeze(sched, first, lsu_free)

    def _obs_pay(self, sid: int, stretch: _OwedSlots, upto: int) -> None:
        """Charge the owed slots before cycle ``upto``; the stretch
        stays open from there (attribution is additive)."""
        gap = upto - stretch.first
        if gap <= 0:
            return
        table = self._stall_table
        kernels = stretch.kernels
        n = len(kernels)
        if n == 1:
            table.bump_sched(self.sm_id, sid, kernels[0], stretch.reason,
                             gap)
        else:
            start = stretch.start
            for offset in range(gap):
                table.bump_sched(self.sm_id, sid,
                                 kernels[(start + offset) % n],
                                 stretch.reason)
            stretch.start = (start + gap) % n
        stretch.first = upto
        self._obs_batched += gap

    def _obs_close(self, sid: int, upto: int) -> None:
        stretch = self._obs_owed[sid]
        if stretch is not None:
            self._obs_pay(sid, stretch, upto)
            self._obs_owed[sid] = None

    def _obs_thaw(self, sched: WarpScheduler, upto: int) -> None:
        """An event other than an issue changed what stall attribution
        reads off ``sched``'s warps at cycle ``upto`` (a load return, a
        launch): end its latency / memory-stall stretch there.  A burst
        is indifferent to both.  If the SM sleeps on past ``upto``
        nothing will re-classify the slot, so name the new verdict."""
        stretch = self._obs_owed[sched.sched_id]
        if stretch is None or stretch.reason is ISSUED:
            return
        self._obs_close(sched.sched_id, upto)
        if upto < self._sleep_until:
            # Asleep: the LSU queue is frozen at its current length.
            lsu = self.lsu
            self._obs_owed[sched.sched_id] = self._obs_freeze(
                sched, upto, len(lsu.queue) < lsu.queue_depth)

    def _obs_settle(self, upto: int) -> None:
        """Pay every owed issue slot before cycle ``upto`` (the last
        step of :meth:`settle`)."""
        for sid, stretch in enumerate(self._obs_owed):
            if stretch is not None:
                self._obs_pay(sid, stretch, upto)

    # ------------------------------------------------------------------
    # scheme event hooks (called by the LSU)
    def _note_scheme_window(self) -> None:
        """A scheme window boundary fired (DMIL limit recompute, QBMI
        quota replenish, Req/Minst refresh): issue eligibility may have
        changed with no scheduler wake attached, so end any sleep — a
        MIL-capped one rests on the limits just recomputed.  A boundary
        fires inside an LSU tick: this SM's own (awake, mid-tick: the
        sleep decision that follows reads the new limits) or, for
        global DMIL's shared MILGs, the monitor's — SM 0, which ticks
        first, so every other subscriber sees the lowered horizon later
        in the same SM pass and ticks on the boundary's own cycle, as
        the oracle's SMs read the new limits."""
        self._sleep_until = 0

    def on_request_issued(self, request, result: str, cycle: int) -> None:
        self.on_request_issued_values(request.kernel, request.line,
                                      request.is_write, result, cycle)

    def on_request_issued_values(self, kernel: int, line: int,
                                 is_write: bool, result: str,
                                 cycle: int) -> None:
        """:meth:`on_request_issued` over scalars — the pooled LSU path
        already holds the request fields unpacked, so no request object
        (or slot view) needs materialising per issue."""
        k = kernel
        if not self._mem_hooks_inert:
            state = self.kstate[k]
            self.bundle.limiter.note_request(k, state.inflight_minsts)
            self.bundle.mem_policy.note_request(k)
            if self.bundle.ucp is not None and not is_write:
                self.bundle.ucp.observe(k, line)
        self.kernel_stats[k].mem_requests += 1
        if self.timeline is not None:
            self.timeline.bump("l1d_access", k, cycle)

    def on_rsfail(self, kernel: int, cycle: int) -> None:
        if not self._mem_hooks_inert:
            self.bundle.limiter.note_rsfail(kernel)

    def _on_meminst_complete(self, inst: MemInst, cycle: int) -> None:
        k = inst.kernel
        state = self.kstate[k]
        state.inflight_minsts -= 1
        if not self._mem_hooks_inert:
            self.bundle.limiter.observe_inflight(k, state.inflight_minsts)
        if (self._sleep_blocked and cycle < self._sleep_until
                and self._sleep_blocked >> k & 1
                and self._limiter.can_issue(k, state.inflight_minsts)):
            # The decrement re-opened a kernel a sleeping scheduler's
            # issue-stall memo waits on: the tick at ``cycle`` resolves
            # the new mask, so the SM must run it (this return came
            # with the memory tick, ahead of the SM pass).  Keyed on
            # the sleep, not on hook inertness: SMIL's hooks are inert
            # and its caps open the same way.
            self._sleep_until = cycle
        warp = inst.warp
        if not inst.is_store:
            sched = warp.sched
            warp.note_load_done(cycle)
            if warp.stream.next_op is None and not warp.outstanding_loads:
                if self._lrr:
                    # A sleeping SM owes each scheduler one rotation
                    # advance per slept cycle *while it owns warps*:
                    # pay before this retirement can empty one.
                    self._settle_sleep_debt(cycle)
                self._finish_warp(warp)
            else:
                # The returned load may unblock an MLP-capped warp the
                # scheduler's sleep hint knows nothing about.  Crossing
                # back below the MLP cap restores scan-list membership
                # (the exact inverse of the scan_block at issue).
                if (warp.outstanding_loads == warp.mlp - 1
                        and warp.stream.next_op is not None):
                    sched.scan_unblock(warp)
                sched.wake_at(warp.ready_at)
                if sched._auto_warp is warp and cycle < self._sleep_until:
                    # The return just raised the bursting warp's
                    # scoreboard: the burst disarms THIS cycle and the
                    # freed issue slot may go to another warp, so a
                    # burst-sleeping SM must tick at ``cycle`` itself
                    # (wake_at above only wakes it at ready_at).
                    self._sleep_until = cycle
            if self._obs is not None:
                # The return moved a scoreboard: the warp's scheduler
                # may owe its slots to another warp from here on — this
                # cycle's slot when the return came with the memory
                # tick, the next one's when it came out of this SM's
                # own LSU tick (after this cycle's accounting).
                self._obs_thaw(sched, cycle + 1
                               if self._last_tick == cycle else cycle)

    # ------------------------------------------------------------------
    # whole-SM sleep accounting
    def _end_stall_sleep(self) -> None:
        """The L1 release hook a memory-stall sleep arms
        (``LoadStoreUnit.arm_release``; one shot: it disarms itself):
        the resource class the memoised verdict reads was just
        released, so the verdict the sleep rests on is void — tick
        this very cycle.  If the sleep already ended another way (a
        scheduler horizon, a load return) the hook fires late, on an SM
        that is awake (a no-op) or in a sleep of another kind (an
        early, inert wake)."""
        self.lsu.arm_release(None)
        self._stall_wakes += 1
        self._sleep_until = 0

    def _pay_sleep_debt(self, gap: int) -> None:
        """Pay, in one batch, what ``gap`` slept cycles would have done
        one cycle at a time.

        * The scheduler round-robin start advances once per cycle in
          the reference loop, slept or not; under LRR so does each
          scheduler's rotation position while it owns warps (every
          skipped select() early-out owes one advance).
        * Each slept cycle issued exactly one ALU per mid-burst
          scheduler: the sleep horizon was capped at every burst's
          remaining length, and any event that could break a burst
          early lowers ``_sleep_until`` to its own cycle
          (``_on_meminst_complete``).  The warp's stale ``ready_at`` is
          harmless: the burst step and ``note_load_done`` compare it
          against the current cycle the same way a per-cycle value
          would.
        * Each cycle of a memory-stall sleep replayed the memoised
          reservation failure once; the LSU settles the count with its
          other deferred replays (``_flush_stall_debt``).

        Every term is additive, so paying a prefix at a run boundary
        (``_settle_sleep_debt``) and the rest on wake-up equals paying
        the whole gap at once."""
        cause = self._sleep_cause
        self._slept[cause] += gap
        if cause == SLEEP_STALL:
            self.lsu._stall_owed += gap
            self._stall_sleep_pays = True
        self._sched_rr = (self._sched_rr + gap) % len(self.schedulers)
        if self._lrr:
            for sched in self.schedulers:
                if sched.warps:
                    sched._lrr_pos += gap
            return
        if not self._sleep_bursting:
            return  # bursts cannot arm while asleep
        for sched in self.schedulers:
            left = sched._auto_left
            if left:
                stats = sched._auto_stats
                stats.warp_insts += gap
                stats.alu_insts += gap
                self.alu_busy += gap
                sched._auto_left = left - gap

    def _settle_sleep_debt(self, end: int) -> None:
        """Settle sleep accounting when the run ends mid-sleep.

        A sleeping SM defers its per-cycle bookkeeping to the wake-up
        tick; if the run's final cycle falls inside the sleep window
        that tick never comes, so result collection pays the slept
        cycles ``last_tick+1 .. min(end, _sleep_until)-1`` here (the
        first step of :meth:`settle`).  Idempotent via the ``_last_tick``
        advance, so a later ``run`` (or a ``set_tb_limit`` landing
        mid-sleep) pays only what is still owed."""
        horizon = self._sleep_until
        if horizon > end:
            horizon = end
        gap = horizon - self._last_tick - 1
        if gap > 0:
            self._pay_sleep_debt(gap)
            self._last_tick = horizon - 1

    def settle(self, upto: int) -> None:
        """Pay everything this SM owes for the cycles before ``upto``
        (``GPU.settle``).  The order matters: the sleep debt first (a
        memory-stall sleep's share lands in the LSU's ``_stall_owed``),
        then the LSU's deferred stall replays, then the owed issue-slot
        attribution.  Idempotent and additive; a no-op on the oracle,
        which never sleeps, defers or owes."""
        self._settle_sleep_debt(upto)
        self.lsu._flush_stall_debt()
        if self._obs is not None:
            self._obs_settle(upto)

    def set_tb_limit(self, slot: int, limit: int) -> None:
        """Reconfigure one kernel's TB cap (``GPU.set_tb_limit``).  A
        raised cap can unblock TB launches: rescan, and end any sleep
        (it rested on nothing being launchable)."""
        self.kstate[slot].tb_limit = limit
        self._launch_blocked = False
        self._sleep_until = 0

    # ------------------------------------------------------------------
    def resident_warps(self) -> int:
        return self._used_warps
