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

One class per machine (chosen in ``repro.sim.engine.GPU``):
:class:`StreamingMultiprocessor` is the oracle — the plain
specification of those issue and stall semantics, executed every
cycle — and :class:`SleepingSM` is the production machine's SM, which
adds exactly the machinery that skips provably inert work and settles
it later (sleep and its wakes, the issue-stall memo, the issue
autopilot, issue-through, owed attribution; docs/PERF.md section 3).

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
from repro.sim.stats import SLEEP_CAUSES, SM_COUNTERS, KernelStats
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.kernel import OP_ALU, OP_SFU, OP_STORE


#: cycles an SFU instruction holds its warp (an ALU one holds it one).
SFU_ISSUE_INTERVAL = 4

#: whole-SM sleep causes as indices into ``_slept`` (SLEEP_CAUSES order).
SLEEP_IDLE, SLEEP_STALL, SLEEP_MIL = range(len(SLEEP_CAUSES))

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
    """One SM of the oracle: every cycle, every scheduler scans its
    warps against per-cycle closures, and nothing is remembered, skipped
    or deferred.  The specification :class:`SleepingSM` is held
    bit-identical to (docs/PERF.md section 3)."""

    #: the cycle loop skips an SM while ``cycle < _sleep_until``; the
    #: oracle never raises it.
    _sleep_until = 0

    def __init__(self, sm_id: int, config: GPUConfig, l1: L1DCache,
                 launches: List, bundle: SchemeBundle,
                 kernel_stats: Dict[int, KernelStats], obs=None):
        self.sm_id = sm_id
        self.config = config
        self.l1 = l1
        self.launches = launches
        self.bundle = bundle
        self.kernel_stats = kernel_stats
        #: observability collector (None = zero-cost sentinel checks).
        self._obs = obs
        #: per-tick scratch for stall attribution: scheduler id ->
        #: issuing kernel, and scheduler id -> kernel that lost the
        #: BMI arbitration without a compute fallback.
        self._obs_issued: Dict[int, int] = {}
        self._obs_lost: Dict[int, int] = {}

        self.lsu = LoadStoreUnit(sm_id, l1, width=config.lsu_width)
        self.lsu._obs = obs
        self.schedulers = [WarpScheduler(i, config.scheduler_policy)
                           for i in range(config.schedulers_per_sm)]
        for sched in self.schedulers:
            sched.sm = self
        self.kstate: Dict[int, SMKernelState] = {
            launch.slot: SMKernelState(launch.tb_limits[sm_id])
            for launch in launches
        }
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
        # Run-constant scheme components.
        self._gate = bundle.smk_gate
        self._ucp = bundle.ucp
        self._limiter = bundle.limiter
        #: whether the LSU queue had room when this tick's issue phase
        #: began (stall attribution reads it after the scheduler loop).
        self._lsu_free = True
        # Baseline runs leave every scheme observation hook at its
        # empty base-class implementation; detecting that once lets
        # the per-request paths skip the calls outright (a pure no-op
        # either way).
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
        # Scheduler issue orders for each round-robin start, prebuilt.
        nsched = len(self.schedulers)
        self._sched_orders = [
            tuple(self.schedulers[(s + o) % nsched] for o in range(nsched))
            for s in range(nsched)
        ]

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

    def try_launch_tb(self, cycle: int) -> bool:
        """Launch at most one TB, round-robin over kernels; True if one
        launched."""
        n = len(self.launches)
        start = self._launch_rr
        for offset in range(n):
            launch = self.launches[(start + offset) % n]
            state = self.kstate[launch.slot]
            if state.tb_count < state.tb_limit and self._fits(launch):
                self._launch_rr = (start + offset + 1) % n
                self._launch(launch, cycle)
                return True
        return False

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
        self.kernel_stats[tb.kernel_slot].tbs_completed += 1

    def _finish_warp(self, warp: Warp) -> None:
        # The owning scheduler is recorded on the warp at add_warp
        # time, so retirement needs no scan over schedulers.
        warp.sched.remove_warp(warp)
        warp.tb.note_warp_done()
        if warp.tb.done:
            self._retire_tb(warp.tb)

    def set_tb_limit(self, slot: int, limit: int) -> None:
        """Reconfigure one kernel's TB cap (``GPU.set_tb_limit``)."""
        self.kstate[slot].tb_limit = limit

    # ------------------------------------------------------------------
    # issue
    def tick(self, cycle: int) -> None:
        if self._ucp is not None:
            self._ucp.tick(cycle)
        self.try_launch_tb(cycle)
        self._sfu_used = False
        gate = self._gate
        limiter = self._limiter
        self._lsu_free = lsu_free = self.lsu.can_accept()

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

        proposals = []
        start = self._sched_rr
        self._sched_rr = (start + 1) % len(self.schedulers)
        for sched in self._sched_orders[start]:
            sel = sched.select_reference(cycle, mem_ok, compute_ok,
                                         warp_gated)
            if sel is None:
                continue
            if sel.is_mem:
                proposals.append((sched, sel))
            else:
                self._issue_compute(sched, sel.warp, sel.op, cycle)
        if proposals:
            # One LSU issue slot: the BMI policy picks the winner, and a
            # loser issues its compute fallback if it has one.
            winner = self.bundle.mem_policy.pick(
                [sel.warp.kernel_slot for _, sel in proposals])
            for idx, (sched, sel) in enumerate(proposals):
                if idx == winner:
                    self._issue_mem(sched, sel.warp, sel.op, cycle)
                elif (sel.fallback is not None
                      and compute_ok(sel.fallback_op)):
                    self._issue_compute(sched, sel.fallback,
                                        sel.fallback_op, cycle)
                elif self._obs is not None:
                    self._obs_lost[sched.sched_id] = sel.warp.kernel_slot
        if self._obs is not None:
            self._obs_account(self._obs, cycle)
        self.lsu.tick(cycle, self)
        if gate is not None:
            resident = [k for k, st in self.kstate.items() if st.resident_warps]
            if resident:
                gate.maybe_reset(resident)

    def _issue_compute(self, sched: WarpScheduler, warp: Warp, op: str,
                       cycle: int) -> None:
        warp.stream.pop()
        k = warp.kernel_slot
        stats = self.kernel_stats[k]
        stats.warp_insts += 1
        if op is OP_ALU:
            stats.alu_insts += 1
            self.alu_busy += 1
            warp.ready_at = cycle + 1
        else:
            stats.sfu_insts += 1
            self.sfu_busy += 1
            self._sfu_used = True
            warp.ready_at = cycle + SFU_ISSUE_INTERVAL
        self._note_issue(sched, warp, op, cycle)

    def _issue_mem(self, sched: WarpScheduler, warp: Warp, op: str,
                   cycle: int) -> None:
        k = warp.kernel_slot
        is_store = op == OP_STORE
        # Every warp replays (KernelLaunch.new_stream), and replay hands
        # out global lines: a range, or a fresh list from the warp's
        # footprint — safe to give the MemInst without copying.
        lines = warp.stream.pop_mem()
        state = self.kstate[k]
        state.inflight_minsts += 1
        self.bundle.limiter.observe_inflight(k, state.inflight_minsts)
        self.bundle.mem_policy.note_mem_inst(k)
        self.lsu.enqueue(MemInst(warp, lines, is_store,
                                 self._on_meminst_complete))
        if not is_store:
            warp.outstanding_loads += 1
        stats = self.kernel_stats[k]
        stats.warp_insts += 1
        stats.mem_insts += 1
        warp.ready_at = cycle + 1
        self._note_issue(sched, warp, op, cycle)

    def _note_issue(self, sched: WarpScheduler, warp: Warp, op: str,
                    cycle: int) -> None:
        """What every issue does after its own bookkeeping: the
        scheduler, gate and observer hear of it, and a warp whose
        stream it drained retires once no load is in flight."""
        k = warp.kernel_slot
        sched.note_issued(warp)
        if self._gate is not None:
            self._gate.note_issue(k)
        if self._obs is not None:
            self._obs_issued[sched.sched_id] = k
            self._obs.issue_event(self.sm_id, sched.sched_id, k, op, cycle)
        if warp.stream.next_op is None and not warp.outstanding_loads:
            self._finish_warp(warp)

    # ------------------------------------------------------------------
    # stall attribution (observability; never reached with obs off)
    def _obs_account(self, obs, cycle: int) -> None:
        """Classify every scheduler's issue-slot outcome this cycle
        (:mod:`repro.obs.stalls` has the taxonomy): ``issued``, a lost
        BMI arbitration, or the reason its highest-priority
        latency-ready warp could not go.  Residual same-cycle races (a
        gate quota consumed between selection and attribution) land in
        ``other``.  ``obs`` is the caller's already-guarded sentinel."""
        table = obs.stalls
        issued = self._obs_issued
        lost = self._obs_lost
        for sched in self.schedulers:
            sid = sched.sched_id
            k = issued.get(sid)
            if k is not None:
                reason = ISSUED
            elif sid in lost:
                k, reason = lost[sid], STALL_BMI_LOSS
            else:
                k, reason = self._obs_verdict(sched, cycle)
            table.bump_sched(self.sm_id, sid, k, reason)
        issued.clear()
        lost.clear()

    def _obs_verdict(self, sched: WarpScheduler, cycle: int):
        """``(kernel, reason)`` for a scanned scheduler that neither
        issued nor lost the arbitration: pin the denial on the
        scoreboard, the gate, the port, or the memory pipeline."""
        warp, op, status = sched.first_ready(cycle)
        if status == "empty":
            return KERNEL_NONE, STALL_NO_WARP
        k = warp.kernel_slot
        if status == "blocked":
            return k, STALL_SCOREBOARD
        gate = self._gate
        if gate is not None and not gate.can_issue(k):
            return k, STALL_SMK_GATE
        if op == OP_SFU or op == OP_ALU:
            return k, (STALL_EXEC_PORT if op == OP_SFU and self._sfu_used
                       else STALL_OTHER)
        if not self._lsu_free:
            return k, STALL_LSU_FULL
        if not self._limiter.can_issue(k, self.kstate[k].inflight_minsts):
            return k, STALL_MIL_CAPPED
        return k, STALL_OTHER

    # ------------------------------------------------------------------
    # scheme event hooks (called by the LSU)
    def on_request_issued(self, request, result: str, cycle: int) -> None:
        self.on_request_issued_values(request.kernel, request.line,
                                      request.is_write, result, cycle)

    def on_request_issued_values(self, kernel: int, line: int,
                                 is_write: bool, result: str,
                                 cycle: int) -> None:
        """:meth:`on_request_issued` over scalars — issue-through has
        no request object to pass."""
        k = kernel
        if not self._mem_hooks_inert:
            state = self.kstate[k]
            self.bundle.limiter.note_request(k, state.inflight_minsts)
            self.bundle.mem_policy.note_request(k)
            if self.bundle.ucp is not None and not is_write:
                self.bundle.ucp.observe(k, line)
        self.kernel_stats[k].mem_requests += 1

    def on_rsfail(self, kernel: int, cycle: int) -> None:
        if not self._mem_hooks_inert:
            self.bundle.limiter.note_rsfail(kernel)

    def _on_meminst_complete(self, inst: MemInst, cycle: int) -> None:
        k = inst.kernel
        state = self.kstate[k]
        state.inflight_minsts -= 1
        self.bundle.limiter.observe_inflight(k, state.inflight_minsts)
        if not inst.is_store:
            warp = inst.warp
            warp.note_load_done(cycle)
            if warp.stream.next_op is None and not warp.outstanding_loads:
                self._finish_warp(warp)

    # ------------------------------------------------------------------
    def settle(self, upto: int) -> None:
        """Pay everything owed for the cycles before ``upto``
        (``GPU.settle``): nothing — the oracle never sleeps, defers or
        owes."""

    def sleep_counters(self) -> Dict[str, int]:
        """This SM's share of ``RunResult.sleep`` (the keys in
        :data:`~repro.sim.stats.SM_COUNTERS`): all zero on the oracle,
        which never sleeps, batches or finishes a load at issue."""
        return dict.fromkeys(SM_COUNTERS, 0)


class SleepingSM(StreamingMultiprocessor):
    """One SM of the production machine: the oracle's semantics plus
    the machinery that skips what is provably inert and settles it
    later — whole-SM sleep (idle, memory-stall, MIL-capped) and its
    wakes, scheduler sleep hints and the issue-stall memo, the issue
    autopilot, issue-through, owed stall attribution — over the same
    memory path as the oracle, whose ``L1DCache`` release hooks and
    hit probe it uses.  Every trick is a no-op rewrite of
    :class:`StreamingMultiprocessor` (docs/PERF.md sections 3, 7
    and 8)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        config, bundle, obs = self.config, self.bundle, self._obs
        #: scheduler id -> the stretch of issue slots attribution still
        #: owes (see ``_obs_account``), the table they are paid into
        #: (None with obs off: nothing is ever owed then), and how many
        #: slots were paid in such batches (self-observability).
        self._obs_owed: List[Optional[_OwedSlots]] = (
            [None] * config.schedulers_per_sm)
        self._stall_table = obs.stalls if obs is not None else None
        self._obs_batched = 0
        # The memoising LSU tick, bound once; the per-call check it
        # depends on (hook inertness) is fixed for the run, so it is
        # resolved into the LSU here.
        self._lsu_tick = self.lsu.tick_memoised
        self.lsu._inline_stats = (
            self.kernel_stats if self._mem_hooks_inert else None)
        if type(bundle.limiter).note_rsfail is not MemInstLimiter.note_rsfail:
            self.lsu._rsfail_hook = bundle.limiter.note_rsfail
        #: the open-kernel mask (bit k: kernel k's memory instructions
        #: may issue) of the latest tick that resolved one through the
        #: limiter (LSU free, MIL limited); a full LSU is mask 0 and an
        #: unlimited MIL all-ones, neither stored.  See ``tick``.
        self._open = 0
        #: kstate as a list — the slot set is fixed for the whole run,
        #: so the per-tick mask avoids rebuilding a dict view.
        self._kstate_items = list(self.kstate.items())
        self._limiter_unlimited = isinstance(bundle.limiter, NoLimit)
        #: issue-through (see ``_issue_mem``) only without a recorded
        #: trace, which wants every request's events.
        self._through_ok = obs is None or obs.trace is None
        #: the baseline policy's pick is pure "first proposer wins".
        self._pick_trivial = (type(bundle.mem_policy).pick
                              is UnmanagedIssue.pick)
        # Bound-method references so tick() allocates no closures.
        self._mem_ok_cb = self._mem_ok
        self._mem_ok_gated_cb = self._mem_ok_gated
        self._compute_ok_cb = self._compute_ok
        self._warp_gated_cb = self._warp_gated
        #: True while a TB-launch scan is known to be futile; cleared
        #: whenever residency or a TB limit changes.
        self._launch_blocked = False
        #: whole-SM sleep: while ``cycle < _sleep_until`` the entire
        #: tick is provably a no-op and is skipped; the wake-up tick
        #: pays the gap (``_pay_sleep_debt``).  Not with UCP (it ticks
        #: its epoch counter every cycle) nor with an SMK gate (its
        #: quota resets in every tick).
        self._sleep_until = 0
        self._last_tick = -1
        self._sleep_eligible = bundle.ucp is None
        #: why the SM last went to sleep, and slept cycles per cause.
        self._sleep_cause = SLEEP_IDLE
        self._slept = [0] * len(SLEEP_CAUSES)
        #: kernels whose MIL cap this sleep rests on: the union of the
        #: issue-stall memos that froze a scheduler while the LSU queue
        #: had room.  An in-flight decrement that re-opens one of them
        #: ends the sleep (``_on_meminst_complete``).
        self._sleep_blocked = 0
        #: whether the last memory-stall sleep skipped any cycle at all:
        #: after one that did not (a release came the very next cycle)
        #: the SM waits for a replayed stall before sleeping on a stall
        #: again.  Host-time heuristic only: sleeping less is exact.
        self._stall_sleep_pays = True
        #: L1 release hooks that ended (or came after) a memory-stall
        #: sleep, each one tick and one real lookup of the stalled head.
        self._stall_wakes = 0
        self._lrr = config.scheduler_policy == "lrr"
        #: issue autopilot eligibility (see WarpScheduler._auto_warp):
        #: bursts bypass _issue_compute's gate / trace hooks and rely
        #: on GTO's greedy warp holding priority[0], so they arm only
        #: under GTO with both of those inert.  Observed runs owe a
        #: burst's slots as ``issued``; only a recorded trace wants its
        #: per-issue slices.
        self._auto_ok = (config.scheduler_policy == "gto"
                         and bundle.smk_gate is None
                         and not (obs is not None
                                  and obs.trace is not None))
        # Scheme window boundaries (DMIL limit recompute, QBMI quota
        # replenish, Req/Minst refresh) change issue eligibility with
        # no scheduler wake attached: subscribe, so an SM asleep on a
        # MIL verdict wakes.  Global DMIL's MILGs are shared: every SM
        # subscribes.
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
    def _launch(self, launch, cycle: int) -> None:
        super()._launch(launch, cycle)
        if self._obs is not None:
            # New warps change who a latency-asleep scheduler's slots
            # are owed to (an empty one now has work): pay up to here.
            for sched in self.schedulers:
                self._obs_thaw(sched, cycle)

    def _retire_tb(self, tb: ThreadBlock) -> None:
        super()._retire_tb(tb)
        # Freed residency may admit a new TB: rescan, and resume
        # ticking.
        self._launch_blocked = False
        self._sleep_until = 0

    def set_tb_limit(self, slot: int, limit: int) -> None:
        """A raised cap can unblock TB launches: rescan, and end any
        sleep (it rested on nothing being launchable)."""
        super().set_tb_limit(slot, limit)
        self._launch_blocked = False
        self._sleep_until = 0

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
        if cycle - last > 1:
            self._pay_sleep_debt(cycle - last - 1)
        if self._ucp is not None:
            self._ucp.tick(cycle)
        if not self._launch_blocked:
            # A failed scan stays futile until residency or a limit
            # changes (``_retire_tb``, ``set_tb_limit``).
            self._launch_blocked = not self.try_launch_tb(cycle)
        self._sfu_used = False

        gate = self._gate
        lsu = self.lsu
        self._lsu_free = lsu_free = len(lsu.queue) < lsu.queue_depth
        # Resolve the open-kernel mask once (the limiter and the LSU
        # occupancy are frozen during the selection phase; the SMK gate
        # is not, so it is queried live): a full LSU closes every kernel
        # (mask 0, ``mem_ok=None``), an unlimited MIL opens every kernel
        # (``mem_ok=True``, no mask: the memo test below short-circuits
        # on None, as under a gate, which never leaves a memo), else one
        # bit per kernel.  ``warp_gated=None``: no gate at all.
        open_mask = None
        if gate is None:
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

        mem_proposals = None
        n = len(self.schedulers)
        start = self._sched_rr
        self._sched_rr = (start + 1) % n
        for sched in self._sched_orders[start]:
            if sched._auto_left:
                # Issue autopilot: the greedy warp's run of ALU ops issues
                # one per cycle without selection — provably select()'s
                # pick (WarpScheduler._auto_warp).  The stream is already
                # past the run, and _auto_ok leaves only these effects.
                warp = sched._auto_warp
                if warp.ready_at <= cycle:
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
                # A returned load raised the warp's scoreboard past this
                # cycle: select() may pick another warp now.  Disarm,
                # give the unissued rest of the run back to the stream,
                # and select as usual.
                sched._auto_warp = None
                warp.stream.rewind_alu(sched._auto_left)
                sched._auto_left = 0
                if self._obs is not None:
                    # The burst's owed ``issued`` slots end here.
                    self._obs_close(sched.sched_id, cycle)
            if cycle < sched._next_wake:
                # select()'s latency-sleep early-out, inlined (LRR still
                # owes its per-call rotation).
                if self._lrr and sched.warps:
                    sched._lrr_pos += 1
                continue
            if (open_mask is not None
                    and (blocked := sched._mem_blocked)
                    and not blocked & open_mask
                    and cycle < sched._mem_wake):
                # Issue-stall memo: every ready warp still holds a memory
                # instruction of a still-closed kernel (full LSU or MIL
                # cap, WarpScheduler._mem_blocked): select() returns None.
                if self._lrr and sched.warps:
                    sched._lrr_pos += 1
                continue
            # compute_ok=None: every port free (no SFU issued yet this
            # cycle) — the scheduler skips the callback.
            sel = sched.select(
                cycle, mem_ok,
                compute_ok if self._sfu_used else None, warp_gated)
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
            # No TB can launch and the LSU is drained (idle) or its head
            # ended this cycle on a memoised reservation failure (memory
            # stall; a fresh one only while such sleeps pay).  If no
            # scheduler acts next cycle — none mid-burst, each
            # latency-asleep until ``_next_wake`` or behind a memo that
            # holds until ``_mem_wake`` (MIL-capped, with room in the
            # queue) — sleep to the earliest horizon.  The mask is
            # re-derived after this cycle's issues and LSU tick; what
            # can move it during the sleep wakes the SM (docs/PERF.md
            # section 3).  Unlimited MIL, drained queue: no memo holds.
            memo_live = stalled or not self._limiter_unlimited
            open_next = None
            waits_on = 0
            soonest = cycle + 1
            wake = NEVER
            for sched in self.schedulers:
                if sched._auto_left:
                    break  # mid-burst: it issues next cycle
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
                    # Until the L1 releases a resource of the class the
                    # verdict reads, each LSU tick is exactly
                    # ``_stall_owed += 1``; that release site calls the
                    # hook armed here, in the same cycle.
                    self._sleep_cause = SLEEP_STALL
                    self._stall_sleep_pays = False
                    lsu.arm_release(self._end_stall_sleep)
                elif waits_on:
                    self._sleep_cause = SLEEP_MIL
                else:
                    self._sleep_cause = SLEEP_IDLE
                self._sleep_blocked = waits_on
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
                # The greedy warp's stream continues with a run of ALU
                # ops: arm the issue autopilot, advancing past the whole
                # run up front (a disarm rewinds the rest).  The early
                # ``next_op`` is only visible to ``_on_meminst_complete``,
                # which reads no more than "drained or not": a run may
                # end the stream only with no load in flight.
                run = stream.pop_alu_run(not warp.outstanding_loads)
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
            warp.ready_at = cycle + SFU_ISSUE_INTERVAL
        # The oracle's _note_issue, inlined (no call per issue), plus
        # scan-list upkeep.
        sched.note_issued(warp)
        gate = self._gate
        if gate is not None:
            gate.note_issue(k)
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
        lines = stream.pop_mem()
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
        # empty, this cycle's LSU tick would look up exactly these lines
        # against exactly this L1 state.  If a read-only probe finds
        # them all hits, finish the load here — no MemInst, queue entry,
        # MemRequest or callback; one cold line, and the queue path runs.
        through = False
        if (self._through_ok and not is_store and not lsu.queue
                and len(lines) <= lsu.width
                and not lsu.bypass_by_kernel[k]):
            l1 = self.l1
            hits = [l1.probe_hit(line) for line in lines]
            if None not in hits:
                through = True
                if hooks_live:
                    for hit, line in zip(hits, lines):
                        l1.commit_hit(hit, k)
                        self.on_request_issued_values(
                            k, line, False, AccessResult.HIT, cycle)
                else:
                    # on_request_issued_values with inert hooks is this
                    # one bump (what the LSU tick's
                    # ``_inline_stats`` does); the call per request
                    # costs 3.5 % of sm16_compute's wall_s (PERF.md §8).
                    for hit in hits:
                        l1.commit_hit(hit, k)
                    stats.mem_requests += len(hits)
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
        """The oracle's classification, except that a scheduler this
        machine does not scan — mid-burst on the issue autopilot,
        latency-asleep until ``_next_wake``, or behind the issue-stall
        memo — repeats one verdict for the whole stretch (docs/PERF.md
        section 7), so its slots are *owed* (``_obs_owed``) and charged
        ``reason x gap`` when the stretch ends: here, at the disarm,
        launch and load-return hooks, or when the engine settles.  A
        whole-SM sleep is every scheduler's stretch running on while
        this is not called at all."""
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
            k, reason = self._obs_verdict(sched, cycle)
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
        owed to while it is not scanned: what the oracle's
        ``_obs_verdict`` reads at ``first``, which nothing but an issue,
        a launch, a load return, the LSU queue crossing full
        (``lsu_free``: the queue state at ``first``) or the hint's
        expiry can change.  Under LRR the rotation start at ``first``
        follows from the cycles ``_lrr_pos`` is behind."""
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

    # ------------------------------------------------------------------
    # wakes
    def _note_scheme_window(self) -> None:
        """A scheme window boundary fired inside an LSU tick — this
        SM's own, or global DMIL's monitor's (SM 0, which ticks first,
        so every other SM still ticks on the boundary's cycle): issue
        eligibility may have changed, so end any sleep."""
        self._sleep_until = 0

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
            # memo waits on: run the tick at ``cycle`` (the memory tick
            # comes first).  Keyed on the sleep, not on hook inertness:
            # SMIL's hooks are inert and its caps open the same way.
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
                # Back below the MLP cap: the exact inverse of the
                # scan_block at issue; and wake the scheduler's hint.
                if (warp.outstanding_loads == warp.mlp - 1
                        and warp.stream.next_op is not None):
                    sched.scan_unblock(warp)
                sched.wake_at(warp.ready_at)
            if self._obs is not None:
                # The scheduler may owe its slots to another warp from
                # here: this cycle's when the return came with the memory
                # tick, the next one's when it came out of this SM's LSU
                # tick (after this cycle's accounting).
                self._obs_thaw(sched, cycle + 1
                               if self._last_tick == cycle else cycle)

    def _end_stall_sleep(self) -> None:
        """The one-shot L1 release hook a memory-stall sleep arms
        (``LoadStoreUnit.arm_release``): the verdict the sleep rests on
        is void, tick this very cycle.  Firing after the sleep ended
        another way is a no-op or an early, inert wake."""
        self.lsu.arm_release(None)
        self._stall_wakes += 1
        self._sleep_until = 0

    # ------------------------------------------------------------------
    # settling what was skipped
    def _pay_sleep_debt(self, gap: int) -> None:
        """Pay, in one batch, what ``gap`` slept cycles would have done
        one cycle at a time.

        * The scheduler round-robin start advances once per cycle in
          the oracle, slept or not; under LRR so does each scheduler's
          rotation position while it owns warps (every skipped
          select() early-out owes one advance).
        * Each cycle of a memory-stall sleep replayed the memoised
          reservation failure once; the LSU settles the count with its
          other deferred replays (``_flush_stall_debt``).

        Nothing else happens on a slept cycle: no scheduler sleeps with
        an autopilot burst armed.  Every term is additive, so paying a
        prefix at a run boundary (``_settle_sleep_debt``) and the rest
        on wake-up equals paying the whole gap at once."""
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

    def _settle_sleep_debt(self, end: int) -> None:
        """Pay the slept cycles ``last_tick+1 .. min(end,
        _sleep_until)-1`` now rather than at a wake-up tick that may
        never come (a run boundary, a retirement).  Idempotent via the
        ``_last_tick`` advance: later ticks pay only what is owed."""
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
        attribution.  Idempotent and additive."""
        self._settle_sleep_debt(upto)
        self.lsu._flush_stall_debt()
        if self._obs is not None:
            for sid, stretch in enumerate(self._obs_owed):
                if stretch is not None:
                    self._obs_pay(sid, stretch, upto)

    def sleep_counters(self) -> Dict[str, int]:
        lsu = self.lsu
        counters = dict(zip(SLEEP_CAUSES, self._slept))
        counters.update(stall_replays_batched=lsu.replays_batched,
                        stall_wakes=self._stall_wakes,
                        insts_through=lsu.insts_through,
                        obs_batched_slots=self._obs_batched)
        return counters
